// Command netco-sweep fans an experiment grid — kinds × scenarios ×
// seeds × parameter variants — out across a worker pool of isolated
// simulations and writes a mergeable JSON artifact.
//
// Usage:
//
//	netco-sweep [-kinds tcp,udp,ping,jitter,hybrid,chaos,impair,churn] [-scenarios all|name,...]
//	            [-seeds 1,2,3 | -seeds 1:10] [-trunk-mbps 250,500,1000]
//	            [-chaos-crashes 0,1,2] [-chaos-flap-ms 0,10,20]
//	            [-loss 0,1,5] [-loss-corr 25] [-loss-ge 1:25,5:50:80:0.5]
//	            [-dup-pct 0,1] [-corrupt-pct 0.1] [-reorder-ms 0,2] [-reorder-pct 25]
//	            [-workers n] [-json f] [-quick] [-full]
//
// Every run builds its own scheduler, pools and engines; results are
// ordered by grid position, so the artifact for a given grid is
// byte-identical whatever -workers is. Interrupting with SIGINT cancels
// not-yet-started runs and reports the completed prefix.
//
// -workers is the only parallelism axis: whole simulations run
// concurrently, each on its own single scheduler, so a grid's
// throughput scales with workers while no run's result depends on them.
//
// The chaos kind measures availability under lifecycle churn; its two
// grid axes — -chaos-crashes (how many routers cold-crash during the
// window) and -chaos-flap-ms (trunk-link flap period, 0 = no flapping) —
// cross with each other and with -trunk-mbps, one variant per
// combination.
//
// The impair kind measures UDP delivery with the netem impairment
// pipeline on every trunk. Its grids — -loss (i.i.d./correlated loss
// percent, with -loss-corr), -loss-ge (Gilbert-Elliott
// pGB:pBG[:lossBad[:lossGood]] tuples in percent, like
// `tc netem loss gemodel`), -dup-pct, -corrupt-pct and -reorder-ms
// (with -reorder-pct) — cross with each other and with -trunk-mbps; a 0
// value is that axis's clean baseline. The pipeline also applies to any
// other kind when impairment flags are set (TCP goodput under loss,
// chaos under duplication, ...). Impairments are seeded from the run
// seed, so artifacts stay byte-identical across -workers.
//
// Hybrid runs attach histogram sketches (flow_rate_mbps,
// flow_goodput_mbps, region_wire_bytes, region_gap_us) to each result;
// the report folds them per group into merged_hists in the JSON
// artifact and the console summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"netco/internal/experiment"
	"netco/internal/netem"
	"netco/internal/runner"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netco-sweep:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it parses args with its own FlagSet
// (so tests can call it repeatedly), writes to stdout, and stops
// scheduling new runs when ctx is cancelled.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("netco-sweep", flag.ContinueOnError)
	var (
		kindsFlag = fs.String("kinds", "tcp,udp,ping", "experiment kinds to run (tcp,udp,ping,jitter,hybrid,chaos,impair,churn)")
		scenFlag  = fs.String("scenarios", "Linespeed,Central3", `scenarios, comma-separated, or "all"`)
		seedsFlag = fs.String("seeds", "1", `seed list "1,2,3" or range "1:10" (inclusive)`)
		trunkFlag = fs.String("trunk-mbps", "", "optional trunk-rate grid in Mbit/s (one variant per value)")
		crashFlag = fs.String("chaos-crashes", "", "optional chaos crash-count grid (one variant per value; chaos kind)")
		flapFlag  = fs.String("chaos-flap-ms", "", "optional chaos flap-period grid in ms, 0 = no flapping (chaos kind)")
		lossFlag  = fs.String("loss", "", "optional trunk loss grid in percent (one variant per value; 0 = clean)")
		lossCorr  = fs.Float64("loss-corr", 0, "loss correlation percent applied to every -loss variant (netem-style)")
		geFlag    = fs.String("loss-ge", "", "optional Gilbert-Elliott grid: pGB:pBG[:lossBad[:lossGood]] tuples in percent, comma-separated (0 = clean)")
		dupFlag   = fs.String("dup-pct", "", "optional trunk duplication grid in percent")
		corrFlag  = fs.String("corrupt-pct", "", "optional trunk bit-corruption grid in percent")
		reoFlag   = fs.String("reorder-ms", "", "optional reorder-jitter grid in ms (0 = none)")
		reoPct    = fs.Float64("reorder-pct", 25, "percent of packets jittered for -reorder-ms variants")
		workers   = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		jsonPath  = fs.String("json", "", "write the full report as JSON to this file")
		quick     = fs.Bool("quick", false, "smoke-test durations")
		full      = fs.Bool("full", false, "paper-faithful durations (10s × 10 runs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	kinds, err := parseKinds(*kindsFlag)
	if err != nil {
		return err
	}
	scenarios, err := parseScenarios(*scenFlag)
	if err != nil {
		return err
	}
	seeds, err := parseSeeds(*seedsFlag)
	if err != nil {
		return err
	}

	base := experiment.DefaultParams()
	if *full {
		base = base.PaperFaithful()
	}
	if *quick {
		base = base.Quick()
	}
	variants, err := parseVariants(*trunkFlag, base)
	if err != nil {
		return err
	}
	variants, err = expandChaosVariants(variants, *crashFlag, *flapFlag)
	if err != nil {
		return err
	}
	variants, err = expandImpairVariants(variants, impairGrids{
		loss: *lossFlag, lossCorrPct: *lossCorr, ge: *geFlag,
		dup: *dupFlag, corrupt: *corrFlag,
		reorderMs: *reoFlag, reorderPct: *reoPct,
	})
	if err != nil {
		return err
	}

	grid := runner.Grid{Kinds: kinds, Scenarios: scenarios, Seeds: seeds, Variants: variants}
	jobs := grid.Jobs()
	fmt.Fprintf(stdout, "sweep: %d runs (%d kinds × %d scenarios × %d seeds × %d variants), workers=%d\n",
		len(jobs), len(kinds), len(scenarios), len(seeds), len(variants), effectiveWorkers(*workers))

	rep := runner.Sweep(ctx, *workers, jobs)

	printReport(stdout, rep)
	if rep.Failed > 0 {
		fmt.Fprintf(stdout, "%d of %d runs failed\n", rep.Failed, len(rep.Runs))
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *jsonPath)
	}
	if ctx.Err() != nil {
		return fmt.Errorf("interrupted after %d completed runs", len(rep.Runs)-rep.Failed)
	}
	return nil
}

func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

func printReport(w io.Writer, rep runner.Report) {
	for _, rec := range rep.Runs {
		if rec.Err != "" {
			fmt.Fprintf(w, "  %-24s seed=%-4d FAILED: %s\n", rec.Group, rec.Seed, rec.Err)
			continue
		}
		fmt.Fprintf(w, "  %-24s seed=%-4d %s\n", rec.Group, rec.Seed, headline(rec.Result.Metrics))
	}
	if len(rep.Merged) == 0 {
		return
	}
	fmt.Fprintln(w, "merged:")
	keys := make([]string, 0, len(rep.Merged))
	for k := range rep.Merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := rep.Merged[k]
		fmt.Fprintf(w, "  %-36s n=%-3d mean=%.3f min=%.3f max=%.3f std=%.3f\n",
			k, s.N(), s.Mean(), s.Min(), s.Max(), s.Std())
	}
	if len(rep.MergedHists) == 0 {
		return
	}
	fmt.Fprintln(w, "merged hists:")
	keys = keys[:0]
	for k := range rep.MergedHists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := rep.MergedHists[k]
		fmt.Fprintf(w, "  %-36s n=%-6d p50=%.3f p95=%.3f max=%.3f\n",
			k, h.N(), h.Quantile(0.5), h.Quantile(0.95), h.Max())
	}
}

// headline picks the run's most informative scalars for the console.
func headline(m map[string]float64) string {
	var parts []string
	for _, key := range []string{"tcp_mbps", "udp_mbps", "udp_loss", "rtt_avg_ms", "jitter_us_128B", "jitter_us_1470B", "fluid_goodput_mbps", "hybrid_event_ratio", "delivered_frac", "recovery_ms", "goodput_mbps", "impair_drops", "impair_duplicated"} {
		if v, ok := m[key]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.3f", key, v))
		}
	}
	if len(parts) == 0 {
		// Fall back to everything, sorted for stable output.
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%.3f", k, m[k]))
		}
	}
	return strings.Join(parts, " ")
}

func parseKinds(spec string) ([]experiment.Kind, error) {
	if strings.EqualFold(spec, "all") {
		return experiment.AllKinds, nil
	}
	var kinds []experiment.Kind
	for _, name := range strings.Split(spec, ",") {
		k, err := experiment.ParseKind(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

func parseScenarios(spec string) ([]experiment.Scenario, error) {
	if strings.EqualFold(spec, "all") {
		return experiment.AllScenarios, nil
	}
	var out []experiment.Scenario
	for _, name := range strings.Split(spec, ",") {
		s, err := experiment.ParseScenario(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func parseSeeds(spec string) ([]int64, error) {
	if lo, hi, ok := strings.Cut(spec, ":"); ok {
		a, err1 := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
		b, err2 := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q (want lo:hi, lo <= hi)", spec)
		}
		seeds := make([]int64, 0, b-a+1)
		for s := a; s <= b; s++ {
			seeds = append(seeds, s)
		}
		return seeds, nil
	}
	var seeds []int64
	for _, part := range strings.Split(spec, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		seeds = append(seeds, s)
	}
	return seeds, nil
}

// parseVariants expands the optional trunk-rate grid. With no grid, the
// single base calibration runs untagged.
func parseVariants(trunkSpec string, base experiment.Params) ([]runner.Variant, error) {
	if trunkSpec == "" {
		return []runner.Variant{{Params: base}}, nil
	}
	var out []runner.Variant
	for _, part := range strings.Split(trunkSpec, ",") {
		mbps, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || mbps <= 0 || math.IsInf(mbps, 0) {
			return nil, fmt.Errorf("bad trunk rate %q (want Mbit/s > 0)", part)
		}
		p := base
		p.TrunkRate = mbps * 1e6
		out = append(out, runner.Variant{Name: fmt.Sprintf("trunk%g", mbps), Params: p})
	}
	return out, nil
}

// crossVariants crosses one comma-separated numeric grid into every
// existing variant: each variant fans out to one copy per grid value,
// tagged "<tag><value>" in its name. An empty spec passes the variants
// through untouched.
func crossVariants(vs []runner.Variant, spec, tag string, apply func(p experiment.Params, v float64) experiment.Params) ([]runner.Variant, error) {
	if spec == "" {
		return vs, nil
	}
	var out []runner.Variant
	for _, base := range vs {
		for _, part := range strings.Split(spec, ",") {
			val, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || val < 0 || math.IsInf(val, 0) {
				return nil, fmt.Errorf("bad %s value %q (want >= 0)", tag, part)
			}
			name := fmt.Sprintf("%s%g", tag, val)
			if base.Name != "" {
				name = base.Name + "/" + name
			}
			out = append(out, runner.Variant{Name: name, Params: apply(base.Params, val)})
		}
	}
	return out, nil
}

// expandChaosVariants crosses the churn grids — crash count and flap
// period — into every existing variant. With neither grid given the
// variants pass through untouched.
func expandChaosVariants(in []runner.Variant, crashSpec, flapSpec string) ([]runner.Variant, error) {
	vs, err := crossVariants(in, crashSpec, "crash", func(p experiment.Params, v float64) experiment.Params {
		p.ChaosCrashes = int(v)
		return p
	})
	if err != nil {
		return nil, err
	}
	return crossVariants(vs, flapSpec, "flap", func(p experiment.Params, v float64) experiment.Params {
		p.ChaosFlapPeriod = time.Duration(v * float64(time.Millisecond))
		return p
	})
}

// impairGrids bundles the CLI impairment-grid specs.
type impairGrids struct {
	loss        string  // i.i.d./correlated loss percents
	lossCorrPct float64 // correlation applied to every -loss variant
	ge          string  // Gilbert-Elliott pGB:pBG[:lossBad[:lossGood]] tuples, percents
	dup         string  // duplication percents
	corrupt     string  // bit-corruption percents
	reorderMs   string  // reorder jitter in ms
	reorderPct  float64 // fraction of packets jittered per -reorder-ms variant
}

// expandImpairVariants crosses the impairment grids into every existing
// variant, one axis at a time (so -loss and -dup-pct together yield the
// full loss × dup surface). A value of 0 disables that stage for the
// variant, which is how a grid includes its clean baseline.
func expandImpairVariants(in []runner.Variant, g impairGrids) ([]runner.Variant, error) {
	if g.lossCorrPct < 0 || g.lossCorrPct >= 100 {
		return nil, fmt.Errorf("bad -loss-corr %g (want 0 <= percent < 100)", g.lossCorrPct)
	}
	if g.reorderPct < 0 || g.reorderPct > 100 {
		return nil, fmt.Errorf("bad -reorder-pct %g (want 0..100)", g.reorderPct)
	}
	vs, err := crossVariants(in, g.loss, "loss", func(p experiment.Params, v float64) experiment.Params {
		p.Impair.LossPct = v
		p.Impair.LossCorrPct = g.lossCorrPct
		return p
	})
	if err != nil {
		return nil, err
	}
	vs, err = crossGEVariants(vs, g.ge)
	if err != nil {
		return nil, err
	}
	vs, err = crossVariants(vs, g.dup, "dup", func(p experiment.Params, v float64) experiment.Params {
		p.Impair.DupPct = v
		return p
	})
	if err != nil {
		return nil, err
	}
	vs, err = crossVariants(vs, g.corrupt, "corrupt", func(p experiment.Params, v float64) experiment.Params {
		p.Impair.CorruptPct = v
		return p
	})
	if err != nil {
		return nil, err
	}
	return crossVariants(vs, g.reorderMs, "reorder", func(p experiment.Params, v float64) experiment.Params {
		p.Impair.ReorderJitter = time.Duration(v * float64(time.Millisecond))
		p.Impair.ReorderPct = g.reorderPct
		return p
	})
}

// crossGEVariants crosses a Gilbert-Elliott grid of
// pGB:pBG[:lossBad[:lossGood]] tuples (all in percent, matching
// `tc netem loss gemodel`; lossBad defaults to 100, lossGood to 0) into
// every existing variant. "0" is the clean baseline tuple.
func crossGEVariants(vs []runner.Variant, spec string) ([]runner.Variant, error) {
	if spec == "" {
		return vs, nil
	}
	type geTuple struct {
		name string
		ge   experiment.ImpairParams
	}
	var tuples []geTuple
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		fields := strings.Split(part, ":")
		if part == "0" {
			tuples = append(tuples, geTuple{name: "ge0"})
			continue
		}
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("bad -loss-ge tuple %q (want pGB:pBG[:lossBad[:lossGood]] in percent)", part)
		}
		vals := [4]float64{0, 0, 100, 0}
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v < 0 || v > 100 {
				return nil, fmt.Errorf("bad -loss-ge value %q in tuple %q (want percent 0..100)", f, part)
			}
			vals[i] = v
		}
		if vals[0] > 0 && vals[1] == 0 {
			return nil, fmt.Errorf("bad -loss-ge tuple %q: pBG = 0 makes the bad state absorbing", part)
		}
		t := geTuple{name: "ge" + strings.ReplaceAll(part, ":", "-")}
		t.ge.GE = netem.LossGE{
			PGoodBad: vals[0] / 100, PBadGood: vals[1] / 100,
			LossBad: vals[2] / 100, LossGood: vals[3] / 100,
		}
		tuples = append(tuples, t)
	}
	var out []runner.Variant
	for _, base := range vs {
		for _, t := range tuples {
			name := t.name
			if base.Name != "" {
				name = base.Name + "/" + name
			}
			p := base.Params
			p.Impair.GE = t.ge.GE
			out = append(out, runner.Variant{Name: name, Params: p})
		}
	}
	return out, nil
}
