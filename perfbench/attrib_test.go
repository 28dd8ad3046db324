package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestParseTracesBucketsFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a := newAttribution()
	if err := a.parseTraces(f); err != nil {
		t.Fatal(err)
	}
	if !near(a.Total, 1.17) {
		t.Errorf("total %v, want 1.17", a.Total)
	}
	if !near(a.Unattributed, 0.01) {
		t.Errorf("unattributed %v, want 0.01 (the scheduler-only sample)", a.Unattributed)
	}
	wantSelf := map[string]float64{
		"fluid":      0.03, // dirFor's map lookup counts for the caller's layer
		"netem":      0.05, // nested under fluid's settle, and under topo's build
		"wheel":      0.01,
		"runtime.gc": 0.05, // the background worker and the assist under core
		"par":        1.02, // innermost layer, below pool and harness
	}
	for l, v := range wantSelf {
		if !near(a.Self[l], v) {
			t.Errorf("self[%s] = %v, want %v", l, a.Self[l], v)
		}
	}
	for l, v := range a.Self {
		if _, ok := wantSelf[l]; !ok && v != 0 {
			t.Errorf("unexpected self time %v for layer %s", v, l)
		}
	}
	wantSpans := map[string]float64{
		"fluid.new_flow_s": 0.03,
		"fluid.settle_s":   0.02,
		"fluid.publish_s":  0.02,
		"core.engine_s":    0.01,
		"topo.build_s":     0.03,
		"netem.wire_s":     0.03,
	}
	for s, v := range wantSpans {
		if !near(a.Spans[s], v) {
			t.Errorf("span %s = %v, want %v", s, a.Spans[s], v)
		}
	}
	for s, v := range a.Spans {
		if _, ok := wantSpans[s]; !ok {
			t.Errorf("unexpected span %s = %v", s, v)
		}
	}
}

func TestParseTracesRejectsUnknownUnit(t *testing.T) {
	in := "-----------+-----\n      10xx   runtime.main\n"
	if err := newAttribution().parseTraces(strings.NewReader(in)); err == nil {
		t.Fatal("want an error for an unknown unit")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"netco/internal/traffic.(*FluidNet).NewFlow":  "fluid",
		"netco/internal/traffic.fillComponent":        "fluid",
		"netco/internal/traffic.(*UDPSource).sendOne": "traffic",
		"netco/internal/sim.(*Wheel).fire":            "wheel",
		"netco/internal/sim.WheelTimer.Stop":          "wheel",
		"netco/internal/sim.(*Scheduler).Step":        "sim",
		"netco/internal/sim/par.(*Engine).Run.func1":  "par",
		"netco/internal/pool.Map[go.shape.struct":     "pool",
		"netco/internal/core.(*Engine).Ingest":        "core",
		"netco.RunChurn":                              "netco",
		"main.runChurn":                               "bench",
		"runtime.mallocgc":                            "",
		"sort.Slice":                                  "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for in, want := range map[string]float64{
		"10ms": 0.01, "1.20s": 1.2, "250us": 250e-6, "2mins": 120, "7ns": 7e-9,
	} {
		got, err := parseDuration(in)
		if err != nil || !near(got, want) {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}
