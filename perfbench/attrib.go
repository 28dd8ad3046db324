package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Attribution turns CPU profile samples into per-layer times. A layer is
// one of the repository's modules (netco/internal/<pkg>), with two
// sub-layers split out because the benchmark targets them on their own:
// fluid (the FluidNet/FluidFlow allocator inside traffic) and wheel
// (sim.Wheel inside sim). Each sample goes to the innermost layer on its
// stack, so a layer's self time excludes time spent inside nested
// boundaries of other layers, while runtime and standard-library frames
// count for the layer that called them (a map lookup in dirFor is
// fluid time). Samples of GC workers and assists go to runtime.gc
// wherever they occur. A sample with no layer frame at all is
// unattributed.

// gcFrames mark samples spent on garbage collection.
var gcFrames = regexp.MustCompile(`^runtime\.(gcBgMarkWorker|gcAssistAlloc|gcStart|bgsweep|bgscavenge)($|\.)`)

// subLayers split a package layer by function.
var subLayers = []struct {
	pkg, layer string
	re         *regexp.Regexp
}{
	{"traffic", "fluid", regexp.MustCompile(`^netco/internal/traffic\.(\(\*?[Ff]luid|fillComponent|NewFluidNet)`)},
	{"sim", "wheel", regexp.MustCompile(`^netco/internal/sim\.(\(\*?Wheel\)|\(\*?WheelTimer\)|WheelTimer\.|\(\*dueSorter\)|NewWheel)`)},
}

// spans are cumulative boundaries: a sample counts once for each span
// with a frame anywhere on its stack, nested layers included.
var spans = []struct {
	name string
	re   *regexp.Regexp
}{
	{"fluid.new_flow_s", regexp.MustCompile(`^netco/internal/traffic\.\(\*FluidNet\)\.NewFlow($|\.)`)},
	{"fluid.release_s", regexp.MustCompile(`^netco/internal/traffic\.(\(\*FluidFlow\)\.Release|\(\*FluidNet\)\.recycle)($|\.)`)},
	{"fluid.settle_s", regexp.MustCompile(`^netco/internal/traffic\.\(\*FluidNet\)\.settle($|\.)`)},
	{"fluid.discover_s", regexp.MustCompile(`^netco/internal/traffic\.\(\*FluidNet\)\.discoverComponent($|\.)`)},
	{"fluid.fill_s", regexp.MustCompile(`^netco/internal/traffic\.fillComponent($|\.)`)},
	{"fluid.publish_s", regexp.MustCompile(`^netco/internal/traffic\.\(\*FluidNet\)\.publishComponent($|\.)`)},
	{"topo.build_s", regexp.MustCompile(`^netco/internal/topo\.`)},
	{"netem.wire_s", regexp.MustCompile(`^netco/internal/netem\.(\(\*Network\)|\(\*LinkBatch\)|\(\*Ports\)\.Grow)`)},
	{"core.engine_s", regexp.MustCompile(`^netco/internal/core\.\(\*Engine\)\.`)},
}

// layerOf names the layer a frame belongs to, or "" for runtime and
// standard-library frames.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "netco/internal/"):
		pkg := strings.TrimPrefix(fn, "netco/internal/")
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[i+1:] // sim/par -> par
		}
		for _, s := range subLayers {
			if s.pkg == pkg && s.re.MatchString(fn) {
				return s.layer
			}
		}
		return pkg
	case strings.HasPrefix(fn, "netco."):
		return "netco"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// attribution is the per-layer breakdown of one or more profiles, in
// seconds of CPU time.
type attribution struct {
	Total        float64
	Unattributed float64
	Self         map[string]float64 // by layer; "runtime.gc" holds GC
	Spans        map[string]float64 // by span name
}

func newAttribution() *attribution {
	return &attribution{Self: map[string]float64{}, Spans: map[string]float64{}}
}

// add attributes one sample of v seconds; stack lists frames leaf first.
func (a *attribution) add(v float64, stack []string) {
	a.Total += v
	inner, gc := "", false
	for i := len(stack) - 1; i >= 0; i-- {
		if l := layerOf(stack[i]); l != "" {
			inner = l
		}
		gc = gc || gcFrames.MatchString(stack[i])
	}
	switch {
	case gc:
		a.Self["runtime.gc"] += v
	case inner == "":
		a.Unattributed += v
	default:
		a.Self[inner] += v
	}
	for _, s := range spans {
		for _, fn := range stack {
			if s.re.MatchString(fn) {
				a.Spans[s.name] += v
				break
			}
		}
	}
}

// parseTraces reads `go tool pprof -traces` output: a header, then one
// block per sample separated by dashed lines, each block holding
// optional label lines, then the sample value and leaf frame on one
// line and the caller frames on the following lines.
func (a *attribution) parseTraces(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		inBlocks bool
		value    float64
		stack    []string
		haveVal  bool
	)
	flush := func() {
		if haveVal {
			a.add(value, stack)
		}
		stack, haveVal = stack[:0], false
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if !haveVal {
			if strings.HasSuffix(fields[0], ":") {
				continue // a sample label line
			}
			v, err := parseDuration(fields[0])
			if err != nil {
				return fmt.Errorf("trace value %q: %w", fields[0], err)
			}
			if len(fields) < 2 {
				return fmt.Errorf("trace line %q has no frame", line)
			}
			value, haveVal = v, true
			fields = fields[1:]
		}
		// The first field is the frame; this drops the " (inline)" marker
		// and cuts generic type arguments at their first space.
		stack = append(stack, fields[0])
	}
	flush()
	return sc.Err()
}

// durationUnits are the units pprof scales times to, in seconds, in an
// order where no suffix is tried after a shorter one it ends with.
var durationUnits = []struct {
	suffix string
	scale  float64
}{
	{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6},
	{"ms", 1e-3}, {"s", 1},
}

func parseDuration(s string) (float64, error) {
	for _, u := range durationUnits {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return 0, fmt.Errorf("unknown unit")
}

// attributeProfile runs the toolchain's pprof over one CPU profile and
// folds its samples into a.
func (a *attribution) attributeProfile(goTool, profile string) error {
	cmd := exec.Command(goTool, "tool", "pprof", "-traces", profile)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	perr := a.parseTraces(out)
	if perr != nil {
		_, _ = io.Copy(io.Discard, out) // let pprof finish writing before Wait
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("go tool pprof -traces %s: %w: %s", profile, err, stderr.String())
	}
	return perr
}
