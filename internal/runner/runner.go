// Package runner fans independent simulation runs out across a worker
// pool. The simulator itself is strictly single-threaded — schedulers,
// packet pools and compare engines all belong to one goroutine — so the
// unit of parallelism is a whole run: each worker builds its own testbed
// from scratch and nothing is shared between runs. Because every run is
// a pure function of its inputs and results are returned in input order,
// the output is bit-identical however many workers execute it.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from one run, failing that run
// instead of the process. Error() deliberately excludes the stack (it
// contains nondeterministic addresses); artifacts stay reproducible and
// the full trace remains available via Stack.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Map runs fn(0..n-1) across a pool of workers and returns the results
// in index order, independent of completion order. workers <= 0 uses
// GOMAXPROCS. A run that panics fails with a *PanicError in its error
// slot; once ctx is cancelled, not-yet-started runs fail with ctx.Err()
// without invoking fn (in-flight runs finish — the simulator has no
// preemption points). errs[i] is nil exactly when results[i] is valid.
func Map[R any](ctx context.Context, workers, n int, fn func(int) (R, error)) (results []R, errs []error) {
	results = make([]R, n)
	errs = make([]error, n)
	if n == 0 {
		return results, errs
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue // keep draining so every index is marked
				}
				results[i], errs[i] = protect(fn, i)
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// protect invokes fn(i), converting a panic into a *PanicError.
func protect[R any](fn func(int) (R, error), i int) (result R, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero R
			result, err = zero, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}
