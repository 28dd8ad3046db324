package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// sample is what one child process reports: one run of one workload.
// Times are measured around the calls the child makes: host wall clock,
// and the process's CPU time (all threads, user plus system).
type sample struct {
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// CPUS is the CPU time of the simulation: the slice loop
	// (central3-attack), the batch of Checks (fuzz), or the whole call,
	// set-up included (churn, hybrid, whose engines time set-up only on
	// the wall clock).
	CPUS float64 `json:"cpu_s"`
	// StepsMS and StepsCPUMS hold the wall and CPU time of each step: a
	// 10 ms virtual slice (central3-attack), one scenario Check (fuzz), or
	// the whole call (churn, hybrid, whose engines expose no finer step).
	StepsMS    []float64          `json:"steps_ms"`
	StepsCPUMS []float64          `json:"steps_cpu_ms"`
	PeakHeapMB float64            `json:"peak_heap_mb"`
	Digest     string             `json:"digest"`
	Checks     []check            `json:"checks"`
	Counts     map[string]float64 `json:"counts"`
	Runtime    runtimeStats       `json:"runtime"`

	// hostSteal is the share of the machine's CPU time the hypervisor
	// took during the run, measured by the parent around the child.
	hostSteal float64
}

// check is one output check; fail_frac counts the ones that did not hold.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func (s *sample) check(name string, ok bool, format string, args ...any) {
	s.Checks = append(s.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// processCPU is the CPU time this process has used so far, all threads,
// user plus system. A paravirtualised kernel leaves out most of the time
// the hypervisor gave to other guests (steal), which wall time counts in
// full, so on a shared virtual machine it is the steadier clock.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stepTimer times one step on both clocks.
type stepTimer struct {
	wall time.Time
	cpu  time.Duration
}

func startStep() stepTimer { return stepTimer{time.Now(), processCPU()} }

// stop appends the step's wall and CPU time, in ms, to the sample.
func (t stepTimer) stop(s *sample) {
	s.StepsMS = append(s.StepsMS, float64(time.Since(t.wall).Nanoseconds())/1e6)
	s.StepsCPUMS = append(s.StepsCPUMS, float64((processCPU()-t.cpu).Nanoseconds())/1e6)
}

// runtimeStats are the Go runtime's own counters over the workload.
type runtimeStats struct {
	AllocMB   float64 `json:"alloc_mb"`
	GCCycles  float64 `json:"gc_cycles"`
	GCPauseMS float64 `json:"gc_pause_ms"`
	// GCCPUFrac is GC CPU time over all non-idle CPU time.
	GCCPUFrac float64 `json:"gc_cpu_frac"`
}

// childMain runs one workload once in this (fresh) process and prints
// its sample as one JSON line.
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	profile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run := workloadNamed(*workload)
	if *workload == "par-ratio" {
		run = runParRatio
	}
	if run == nil {
		fmt.Fprintf(os.Stderr, "perfbench child: unknown workload %q\n", *workload)
		return 2
	}
	s, err := measure(run, *seed, *profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %s: %v\n", *workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	return 0
}

// measure runs the workload with the heap sampler and runtime counters
// around it, and under the CPU profiler when profile is set.
func measure(run func(int64) (sample, error), seed int64, profile string) (sample, error) {
	var prof *os.File
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return sample{}, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return sample{}, err
		}
		prof = f
	}
	before := readRuntime()
	stop := sampleHeap()
	s, err := run(seed)
	s.PeakHeapMB = stop()
	s.Runtime = readRuntime().since(before)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	return s, err
}

// heapMetric is the bytes of heap memory occupied by objects, live or
// awaiting the sweep. Its high-water mark is the heap the run needed.
// The live heap a GC cycle marks ("/gc/heap/live:bytes") was tried
// first and rejected: it counts everything allocated during the mark as
// live, so identical hybrid runs read anywhere from 730 to 1000 MiB.
const heapMetric = "/memory/classes/heap/objects:bytes"

// sampleHeap polls the heap until the returned stop function is called,
// which reports the high-water mark in MiB. At the workloads'
// allocation rates the heap grows well under 1 MiB between polls.
func sampleHeap() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		m := []metrics.Sample{{Name: heapMetric}}
		var hi uint64
		poll := func() {
			metrics.Read(m)
			hi = max(hi, m[0].Value.Uint64())
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			poll()
			select {
			case <-tick.C:
			case <-done:
				poll()
				peak <- hi
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(<-peak) / (1 << 20)
	}
}

type runtimeReading struct {
	allocBytes, gcCycles     uint64
	pauseNS                  uint64
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() runtimeReading {
	m := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(m)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeReading{
		allocBytes: m[0].Value.Uint64(),
		gcCycles:   m[1].Value.Uint64(),
		pauseNS:    ms.PauseTotalNs,
		gcCPU:      m[2].Value.Float64(),
		totalCPU:   m[3].Value.Float64(),
		idleCPU:    m[4].Value.Float64(),
	}
}

func (r runtimeReading) since(b runtimeReading) runtimeStats {
	busy := (r.totalCPU - b.totalCPU) - (r.idleCPU - b.idleCPU)
	return runtimeStats{
		AllocMB:   float64(r.allocBytes-b.allocBytes) / (1 << 20),
		GCCycles:  float64(r.gcCycles - b.gcCycles),
		GCPauseMS: float64(r.pauseNS-b.pauseNS) / 1e6,
		GCCPUFrac: ratio(r.gcCPU-b.gcCPU, busy),
	}
}
