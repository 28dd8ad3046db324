package runner

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netco/internal/experiment"
	"netco/internal/metrics"
)

// Results come back in input order no matter how completion order is
// shuffled across workers.
func TestMapOrderIndependentOfCompletion(t *testing.T) {
	const n = 64
	results, errs := Map(context.Background(), 8, n, func(i int) (int, error) {
		// Early indices sleep longest, so completion order is roughly
		// reversed relative to dispatch order.
		time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
		return i * i, nil
	})
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("errs[%d] = %v", i, errs[i])
		}
		if results[i] != i*i {
			t.Fatalf("results[%d] = %d, want %d", i, results[i], i*i)
		}
	}
}

// A panicking run fails with *PanicError; the process and the other runs
// survive.
func TestMapCapturesPanics(t *testing.T) {
	results, errs := Map(context.Background(), 4, 10, func(i int) (string, error) {
		if i == 3 {
			panic("boom")
		}
		return "ok", nil
	})
	var pe *PanicError
	if !errors.As(errs[3], &pe) {
		t.Fatalf("errs[3] = %v, want *PanicError", errs[3])
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v, want value boom with stack", pe)
	}
	if pe.Error() != "panic: boom" {
		t.Fatalf("Error() = %q, want deterministic short form", pe.Error())
	}
	for i := 0; i < 10; i++ {
		if i == 3 {
			continue
		}
		if errs[i] != nil || results[i] != "ok" {
			t.Fatalf("run %d: result=%q err=%v", i, results[i], errs[i])
		}
	}
}

func TestMapOrderAndValues(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		got, errs := Map(context.Background(), workers, 10, func(i int) (int, error) {
			return i * i, nil
		})
		for i := 0; i < 10; i++ {
			if errs[i] != nil || got[i] != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, err %v", workers, i, got[i], errs[i])
			}
		}
	}
}

// TestMapPanicOrdering scatters panics through a batch wider than the
// worker count: every panicking index gets its own *PanicError (with
// the stack captured but kept out of Error(), whose text must stay
// address-free for reproducible artifacts), and every healthy index
// keeps its in-order result.
func TestMapPanicOrdering(t *testing.T) {
	const n = 64
	got, errs := Map(context.Background(), 4, n, func(i int) (int, error) {
		if i%3 == 0 {
			panic(i)
		}
		return i * 10, nil
	})
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			var pe *PanicError
			if !errors.As(errs[i], &pe) {
				t.Fatalf("errs[%d] = %v, want *PanicError", i, errs[i])
			}
			if pe.Value != i {
				t.Fatalf("errs[%d] carries panic value %v, want %d (slot confusion)", i, pe.Value, i)
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("errs[%d]: stack not captured", i)
			}
			if strings.Contains(pe.Error(), "0x") {
				t.Fatalf("errs[%d]: Error() leaks addresses: %q", i, pe.Error())
			}
		} else if errs[i] != nil || got[i] != i*10 {
			t.Fatalf("healthy slot %d disturbed: %d, %v", i, got[i], errs[i])
		}
	}
}

// TestMapConcurrent drives many Maps from many goroutines at once —
// the race-detector leg for the fan-out (go test -race ./internal/runner/).
func TestMapConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, errs := Map(context.Background(), 4, 100, func(i int) (int, error) {
				return g*1000 + i, nil
			})
			for i := 0; i < 100; i++ {
				if errs[i] != nil || got[i] != g*1000+i {
					t.Errorf("goroutine %d: result[%d] = %d, err %v", g, i, got[i], errs[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Cancellation marks unstarted runs with ctx.Err() without invoking them.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var invoked atomic.Int64
	results, errs := Map(ctx, 1, 8, func(i int) (int, error) {
		invoked.Add(1)
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	if got := invoked.Load(); got != 3 {
		t.Fatalf("invoked %d runs, want 3 (0,1,2 then cancel)", got)
	}
	for i := 0; i <= 2; i++ {
		if errs[i] != nil || results[i] != i {
			t.Fatalf("run %d: result=%d err=%v", i, results[i], errs[i])
		}
	}
	for i := 3; i < 8; i++ {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, errs[i])
		}
	}
}

func TestMapZeroAndDefaults(t *testing.T) {
	results, errs := Map(context.Background(), 0, 0, func(i int) (int, error) { return i, nil })
	if len(results) != 0 || len(errs) != 0 {
		t.Fatalf("n=0: got %d/%d", len(results), len(errs))
	}
	// workers <= 0 (GOMAXPROCS) and workers > n both still cover all runs.
	results, errs = Map(context.Background(), -1, 3, func(i int) (int, error) { return i + 1, nil })
	for i, r := range results {
		if errs[i] != nil || r != i+1 {
			t.Fatalf("run %d: %d/%v", i, r, errs[i])
		}
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	got, errs := Map(context.Background(), 4, 3, func(i int) (int, error) {
		if i == 1 {
			panic("boom")
		}
		return i, nil
	})
	if errs[0] != nil || errs[2] != nil || got[2] != 2 {
		t.Fatalf("healthy slots disturbed: %v %v", got, errs)
	}
	var pe *PanicError
	if !errors.As(errs[1], &pe) || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("panic not wrapped: %v", errs[1])
	}
}

func TestMapContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := Map(ctx, 2, 4, func(i int) (int, error) {
		t.Fatal("fn invoked after cancellation")
		return 0, nil
	})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
}

func TestMapZeroItems(t *testing.T) {
	got, errs := Map(context.Background(), 4, 0, func(i int) (int, error) { return i, nil })
	if len(got) != 0 || len(errs) != 0 {
		t.Fatalf("zero-item map returned %v %v", got, errs)
	}
}

// TestMapNegativeWorkers pins the workers<=0 contract: any
// non-positive count falls back to GOMAXPROCS rather than deadlocking
// with zero workers or panicking on a negative wg.Add.
func TestMapNegativeWorkers(t *testing.T) {
	for _, workers := range []int{-1, -100} {
		got, errs := Map(context.Background(), workers, 7, func(i int) (int, error) {
			return i + 1, nil
		})
		for i := 0; i < 7; i++ {
			if errs[i] != nil || got[i] != i+1 {
				t.Fatalf("workers=%d: result[%d] = %d, err %v", workers, i, got[i], errs[i])
			}
		}
	}
}

// sweepGrid is a small but real grid: two kinds, two scenarios, two
// seeds, with durations cut far below even Quick for test wall-time.
func sweepGrid() Grid {
	p := experiment.DefaultParams().Quick()
	p.PingCount = 5
	p.UDPDuration = 50 * time.Millisecond
	return Grid{
		Kinds:     []experiment.Kind{experiment.KindPing, experiment.KindUDP},
		Scenarios: []experiment.Scenario{experiment.ScenLinespeed, experiment.ScenCentral3},
		Seeds:     []int64{1, 2},
		Variants:  []Variant{{Params: p}},
	}
}

// The acceptance criterion: the same grid produces byte-identical JSON
// whether one worker runs it or many.
func TestSweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	jobs := sweepGrid().Jobs()
	if len(jobs) != 8 {
		t.Fatalf("grid expanded to %d jobs, want 8", len(jobs))
	}
	serial := Sweep(context.Background(), 1, jobs)
	parallel := Sweep(context.Background(), 4, jobs)

	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("workers=1 and workers=4 artifacts differ:\n--- serial ---\n%s\n--- parallel ---\n%s", a.String(), b.String())
	}
	if serial.Failed != 0 {
		t.Fatalf("%d runs failed", serial.Failed)
	}
}

// Merged summaries equal the single-threaded fold of the same runs.
func TestSweepMergeMatchesSingleThreadedFold(t *testing.T) {
	jobs := sweepGrid().Jobs()
	rep := Sweep(context.Background(), 4, jobs)

	want := make(map[string]metrics.Summary)
	for _, rec := range rep.Runs {
		if rec.Result == nil {
			t.Fatalf("run %s seed %d failed: %s", rec.Group, rec.Seed, rec.Err)
		}
		for _, name := range summaryNames(rec.Result.Summaries) {
			key := rec.Group + "." + name
			m := want[key]
			m.Merge(rec.Result.Summaries[name])
			want[key] = m
		}
	}
	if len(rep.Merged) == 0 {
		t.Fatal("no merged summaries")
	}
	for key, w := range want {
		g, ok := rep.Merged[key]
		if !ok {
			t.Fatalf("merged missing %q", key)
		}
		if g.N() != w.N() || math.Abs(g.Mean()-w.Mean()) > 1e-12 || g.Min() != w.Min() || g.Max() != w.Max() {
			t.Fatalf("merged[%q] = %+v, want %+v", key, g, w)
		}
	}
	// Every ping group merged two seeds' samples.
	if s := rep.Merged["ping/Linespeed.rtt_avg_ms"]; s.N() != 2 {
		t.Fatalf("ping/Linespeed.rtt_avg_ms N = %d, want 2", s.N())
	}
}

// Hybrid runs attach histogram sketches; the report folds them per
// group exactly (integer bucket counts) and the artifact stays
// byte-identical across worker counts.
func TestSweepMergesHybridHists(t *testing.T) {
	p := experiment.DefaultParams().Quick()
	p.UDPDuration = 60 * time.Millisecond
	jobs := Grid{
		Kinds:     []experiment.Kind{experiment.KindHybrid},
		Scenarios: []experiment.Scenario{experiment.ScenCentral3},
		Seeds:     []int64{1, 2},
		Variants:  []Variant{{Params: p}},
	}.Jobs()

	serial := Sweep(context.Background(), 1, jobs)
	parallel := Sweep(context.Background(), 2, jobs)
	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("hybrid artifacts differ across worker counts")
	}

	if serial.Failed != 0 {
		t.Fatalf("%d runs failed", serial.Failed)
	}
	want := make(map[string]metrics.Hist)
	for _, rec := range serial.Runs {
		for _, name := range histNames(rec.Result.Hists) {
			key := rec.Group + "." + name
			m := want[key]
			m.Merge(rec.Result.Hists[name])
			want[key] = m
		}
	}
	if len(want) == 0 || len(serial.MergedHists) != len(want) {
		t.Fatalf("merged hists: got %d keys, want %d", len(serial.MergedHists), len(want))
	}
	for key, w := range want {
		g, ok := serial.MergedHists[key]
		if !ok || g.N() != w.N() || g.Min() != w.Min() || g.Max() != w.Max() {
			t.Fatalf("merged hist %q diverged from single-threaded fold (ok=%v)", key, ok)
		}
	}
	if h := serial.MergedHists["hybrid/Central3.flow_rate_mbps"]; h.N() == 0 {
		t.Fatal("flow_rate_mbps sketch empty after merge")
	}
}

// A run that panics (unknown kind) fails its record deterministically
// and leaves the rest of the sweep intact.
func TestSweepRecordsPanicsAsFailedRuns(t *testing.T) {
	p := experiment.DefaultParams().Quick()
	p.PingCount = 5
	jobs := []Job{
		{Kind: experiment.KindPing, Scenario: experiment.ScenLinespeed, Params: p, Seed: 1},
		{Kind: experiment.Kind(99), Scenario: experiment.ScenLinespeed, Params: p, Seed: 1},
	}
	rep := Sweep(context.Background(), 2, jobs)
	if rep.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", rep.Failed)
	}
	if rep.Runs[0].Result == nil || rep.Runs[0].Err != "" {
		t.Fatalf("healthy run affected: %+v", rep.Runs[0])
	}
	if rep.Runs[1].Result != nil || rep.Runs[1].Err != "panic: experiment: unknown Kind 99" {
		t.Fatalf("failed run record = %+v", rep.Runs[1])
	}
}
