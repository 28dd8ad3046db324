// Command perfbench is the repository benchmark: every performance claim
// in this repository is measured with it. It runs one named workload (or
// all four) from a seed, each run in a fresh child process, checks the
// outputs, and prints one result row per metric followed by a summary
// JSON object as the last line. See README.md for the workloads, the
// metrics and how to read a traced run.
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by
// every untraced run (BENCHMARK.json end_to_end lists the same names).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"step_cpu_ms_p50", "ms"},
	{"step_cpu_ms_p90", "ms"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the single-layer metrics of a traced run (BENCHMARK.json
// per_layer lists the same names). A layer a workload never enters
// reads 0.
var perLayer = []metricDef{
	{"fluid.new_flow_s", "s"}, {"fluid.release_s", "s"}, {"fluid.recycle_ratio", "ratio"},
	{"fluid.settle_s", "s"}, {"fluid.discover_s", "s"}, {"fluid.fill_s", "s"}, {"fluid.publish_s", "s"},
	{"fluid.settles", "count"}, {"fluid.components", "count"},
	{"wheel.self_s", "s"}, {"wheel.expired", "count"},
	{"topo.build_s", "s"}, {"netem.wire_s", "s"}, {"netem.self_s", "s"}, {"netem.queue_drops", "count"},
	{"sim.self_s", "s"}, {"sim.events", "count"}, {"sim.ns_per_event", "ns"},
	{"packet.self_s", "s"},
	{"core.self_s", "s"}, {"core.engine_s", "s"}, {"core.ns_per_copy", "ns"},
	{"core.ingested", "count"}, {"core.released", "count"}, {"core.suppressed", "count"}, {"core.cleanup_scanned", "count"},
	{"openflow.self_s", "s"}, {"openflow.lookups", "count"}, {"openflow.hit_rate", "ratio"},
	{"switching.self_s", "s"}, {"traffic.self_s", "s"},
	{"adversary.self_s", "s"}, {"adversary.modified", "count"},
	{"par.self_s", "s"}, {"par.exec_ratio", "ratio"},
	{"harness.self_s", "s"}, {"harness.scenarios", "count"}, {"harness.violations", "count"},
	{"chaos.self_s", "s"}, {"experiment.self_s", "s"},
	{"runtime.alloc_mb", "MiB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"}, {"runtime.gc_s", "s"},
	{"trace.unattributed_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
}

// minRuns is how many untraced child runs an untraced benchmark run
// makes at least, even past the time budget. Hybrid takes about 8 s a
// run, and its run_s is bimodal (see README.md), so a median of three
// flipped between the modes.
const minRuns = 4

// provenance is what every result row records about where it was
// measured.
type provenance struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

type env struct {
	provenance
	exe, goTool, outDir string
}

// row is the one result schema: a metric of one workload run.
type row struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
	provenance
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fset.String("workload", "", "churn, hybrid, central3-attack, fuzz, or all")
	seed := fset.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fset.Float64("seconds", 25, "time budget; no run starts that would likely end past it")
	trace := fset.Int("trace", 0, "0: end-to-end metrics; 1: a traced run reporting per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return err
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if workloadNamed(*workload) == nil {
		return fmt.Errorf("unknown -workload %q (want churn, hybrid, central3-attack, fuzz or all)", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# perfbench commit=%s num_cpu=%d gomaxprocs=%d go=%s\n", e.Commit, e.NumCPU, e.GOMAXPROCS, e.GoVersion)

	sum := summary{Metrics: map[string]metricValue{}}
	for _, w := range names {
		res, err := runWorkload(e, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		for _, c := range res.checks {
			if !c.OK {
				fmt.Fprintf(stdout, "check FAILED %s %s: %s\n", w, c.Name, c.Detail)
			}
		}
		attempted, failed, frac := failFrac(res.checks)
		sum.Attempted += attempted
		sum.Failed += failed
		fmt.Fprintf(stdout, "# %s seed=%d: %d untraced + %d traced runs; %d checks, %d failed; digest %s\n",
			w, *seed, res.untraced, res.traced, attempted, failed, res.digest)
		if res.layers != nil {
			printLayers(stdout, res.layers)
		}
		res.rows = append(res.rows, row{Metric: "fail_frac", Unit: "ratio", Value: frac, Samples: attempted})
		for _, r := range res.rows {
			r.Workload, r.Seed, r.provenance = w, *seed, e.provenance
			b, err := json.Marshal(r)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\n", b)
		}
		want := endToEnd
		if *trace == 1 {
			want = perLayer
		}
		for _, m := range want {
			key := m.name
			if len(names) > 1 {
				key = w + "/" + m.name
			}
			sum.Metrics[key] = metricValue{Value: res.value(m.name), Unit: m.unit}
		}
	}
	sum.Correct = sum.Failed == 0
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// workloadResult is one workload's measured rows and checks.
type workloadResult struct {
	rows             []row
	checks           []check
	digest           string
	untraced, traced int
	layers           *attribution
}

func (r *workloadResult) value(name string) float64 {
	for _, x := range r.rows {
		if x.Metric == name {
			return x.Value
		}
	}
	return 0
}

func (r *workloadResult) add(name, unit string, v float64, n int) {
	r.rows = append(r.rows, row{Metric: name, Unit: unit, Value: v, Samples: n})
}

// runWorkload makes child runs of one workload until the time budget is
// spent. Untraced, every run is timed the same way. Traced, runs
// alternate untraced and CPU-profiled, so the two sets are measured
// under the same conditions and their difference is the profiler's
// overhead.
func runWorkload(e *env, w string, seed int64, budget time.Duration, traced bool) (*workloadResult, error) {
	var plain, prof []sample
	var profiles []string
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		enough := len(plain) >= minRuns
		if traced {
			enough = len(plain) >= 1 && len(prof) >= 1
		}
		// Stop before a run that would likely end past the budget.
		if enough && time.Since(start)+last > budget {
			break
		}
		t := time.Now()
		cpu0, cpuOK := readHostCPU()
		path := ""
		if traced && i%2 == 1 {
			path = filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d-%d.pprof", w, seed, len(prof)))
		}
		s, err := e.child(w, seed, path)
		if err != nil {
			return nil, err
		}
		last = time.Since(t)
		if cpu1, ok := readHostCPU(); ok && cpuOK {
			s.hostSteal = ratio(float64(cpu1.steal-cpu0.steal), float64(cpu1.total-cpu0.total))
		}
		if path == "" {
			plain = append(plain, s)
		} else {
			prof = append(prof, s)
			profiles = append(profiles, path)
		}
	}

	all := append(append([]sample(nil), plain...), prof...)
	res := &workloadResult{untraced: len(plain), traced: len(prof), digest: all[0].Digest}
	for _, s := range all {
		res.checks = append(res.checks, s.Checks...)
	}
	res.checks = append(res.checks, digestChecks(all)...)

	// End-to-end metrics come from untraced runs only.
	var setup, runS, cpuS, heap, steps, stepsCPU []float64
	var alloc, cycles, pause, gcFrac, steal []float64
	for _, s := range plain {
		setup = append(setup, s.SetupS)
		runS = append(runS, s.RunS)
		cpuS = append(cpuS, s.CPUS)
		heap = append(heap, s.PeakHeapMB)
		steps = append(steps, s.StepsMS...)
		stepsCPU = append(stepsCPU, s.StepsCPUMS...)
		alloc = append(alloc, s.Runtime.AllocMB)
		cycles = append(cycles, s.Runtime.GCCycles)
		pause = append(pause, s.Runtime.GCPauseMS)
		gcFrac = append(gcFrac, s.Runtime.GCCPUFrac)
		steal = append(steal, s.hostSteal)
	}
	n := len(plain)
	res.add("setup_s", "s", median(setup), n)
	res.add("cpu_s", "s", median(cpuS), n)
	res.add("step_cpu_ms_p50", "ms", quantile(stepsCPU, 0.5), len(stepsCPU))
	res.add("step_cpu_ms_p90", "ms", quantile(stepsCPU, 0.9), len(stepsCPU))
	res.add("run_s", "s", median(runS), n)
	res.add("step_ms_p50", "ms", quantile(steps, 0.5), len(steps))
	res.add("step_ms_p90", "ms", quantile(steps, 0.9), len(steps))
	res.add("peak_heap_mb", "MiB", median(heap), n)
	res.add("runtime.alloc_mb", "MiB", median(alloc), n)
	res.add("runtime.gc_cycles", "count", median(cycles), n)
	res.add("runtime.gc_pause_ms", "ms", median(pause), n)
	res.add("runtime.gc_cpu_frac", "ratio", median(gcFrac), n)
	res.add("host.steal_frac", "ratio", median(steal), n)
	if !traced {
		return res, nil
	}

	// Per-layer metrics: exact counts from the results, CPU time from
	// the profiles (per profiled run), rates from the untraced runs.
	counts := map[string][]float64{}
	for _, s := range prof {
		for k, v := range s.Counts {
			counts[k] = append(counts[k], v)
		}
	}
	if w == "fuzz" {
		s, err := e.child("par-ratio", seed, "")
		if err != nil {
			return nil, err
		}
		counts["par.exec_ratio"] = []float64{s.Counts["par.exec_ratio"]}
	}
	for _, k := range sortedKeys(counts) {
		res.add(k, unitOf(k), median(counts[k]), len(counts[k]))
	}
	a := newAttribution()
	for _, p := range profiles {
		if err := a.attributeProfile(e.goTool, p); err != nil {
			return nil, err
		}
	}
	res.layers = a
	perRun := 1 / float64(len(prof))
	for _, l := range sortedKeys(a.Self) {
		name := l + ".self_s"
		if l == "runtime.gc" {
			name = "runtime.gc_s"
		}
		res.add(name, "s", a.Self[l]*perRun, len(prof))
	}
	for _, sp := range sortedKeys(a.Spans) {
		res.add(sp, "s", a.Spans[sp]*perRun, len(prof))
	}
	if ev := res.value("sim.events"); ev > 0 {
		res.add("sim.ns_per_event", "ns", median(runS)*1e9/ev, n)
	}
	if in := res.value("core.ingested"); in > 0 {
		res.add("core.ns_per_copy", "ns", res.value("core.engine_s")*1e9/in, len(prof))
	}
	res.add("trace.unattributed_frac", "ratio", ratio(a.Unattributed, a.Total), len(prof))
	wall := func(ss []sample) (w []float64) {
		for _, s := range ss {
			w = append(w, s.SetupS+s.RunS)
		}
		return w
	}
	res.add("trace.overhead_frac", "ratio", median(wall(prof))/median(wall(plain))-1, len(prof))
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return "count"
}

// printLayers prints the traced run's self-time table, largest first.
func printLayers(w io.Writer, a *attribution) {
	type kv struct {
		k string
		v float64
	}
	var ls []kv
	for k, v := range a.Self {
		ls = append(ls, kv{k, v})
	}
	ls = append(ls, kv{"(unattributed)", a.Unattributed})
	sort.Slice(ls, func(i, j int) bool { return ls[i].v > ls[j].v })
	fmt.Fprintf(w, "# layer self time over %.2f CPU-s of profile:\n", a.Total)
	for _, x := range ls {
		fmt.Fprintf(w, "#   %-16s %8.3f s  %5.1f%%\n", x.k, x.v, 100*ratio(x.v, a.Total))
	}
}

// hostCPU is the machine's CPU time in clock ticks: all of it, and the
// part the hypervisor gave to other guests (steal). On the virtual
// machine this benchmark was written on, the steal share during a run
// explained most of its run-to-run spread (correlation 0.94 over 50 fuzz
// runs), so every result reports it.
type hostCPU struct{ steal, total uint64 }

// readHostCPU reads /proc/stat; ok is false where there is none.
func readHostCPU() (hostCPU, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, false
	}
	return parseHostCPU(string(b))
}

// parseHostCPU reads the aggregate "cpu" line of /proc/stat.
func parseHostCPU(stat string) (c hostCPU, ok bool) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return c, false
	}
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return c, false
		}
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c, true
}

// childTimeout bounds one child run, about six times the slowest
// workload's run on a busy host, so that a simulation that never
// finishes fails the benchmark run well inside its three minutes
// instead of hanging it.
const childTimeout = 60 * time.Second

// child runs one workload once in a fresh process of this binary.
func (e *env) child(workload string, seed int64, profile string) (sample, error) {
	args := []string{"child", "-workload", workload, "-seed", fmt.Sprint(seed)}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return sample{}, fmt.Errorf("seed %d: the run did not finish within %v and was killed", seed, childTimeout)
		}
		return sample{}, fmt.Errorf("child run: %w", err)
	}
	var s sample
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		return sample{}, fmt.Errorf("child output: %w", err)
	}
	return s, nil
}

func newEnv() (*env, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("the go toolchain is needed for traced runs: %w", err)
	}
	outDir := filepath.Join(".bench_build", "profiles")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	commit, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	return &env{
		provenance: provenance{
			Commit:     commit,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
		},
		exe:    exe,
		goTool: goTool,
		outDir: outDir,
	}, nil
}

// sourceDigest identifies the code under test: a hash of the netco
// module's Go sources and go.mod. It stands in for a commit id because
// the benchmark also runs in exported checkouts that carry no history.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench" || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != filepath.Join(root, "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:6]), nil
}
