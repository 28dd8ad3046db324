package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// sweepReport mirrors the JSON shape runner.Report.WriteJSON emits; the
// test decodes into it so any field rename breaks loudly here.
type sweepReport struct {
	Runs []struct {
		Group  string `json:"group"`
		Seed   int64  `json:"seed"`
		Err    string `json:"err,omitempty"`
		Result struct {
			Metrics map[string]float64 `json:"metrics"`
		} `json:"result"`
	} `json:"runs"`
	MergedHists map[string]struct {
		N uint64 `json:"n"`
	} `json:"merged_hists"`
	Failed int `json:"failed"`
}

// TestRunJSONShape drives a real (quick) sweep through the CLI and
// checks both the console output and the JSON artifact shape.
func TestRunJSONShape(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-kinds", "ping",
		"-scenarios", "Linespeed",
		"-seeds", "1,2",
		"-workers", "2",
		"-quick",
		"-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if !strings.Contains(out, "sweep: 2 runs (1 kinds × 1 scenarios × 2 seeds × 1 variants), workers=2") {
		t.Errorf("missing sweep header in output:\n%s", out)
	}
	if !strings.Contains(out, "merged:") {
		t.Errorf("missing merged summary in output:\n%s", out)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep sweepReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(rep.Runs) != 2 || rep.Failed != 0 {
		t.Fatalf("want 2 clean runs, got %d runs / %d failed", len(rep.Runs), rep.Failed)
	}
	for _, r := range rep.Runs {
		if r.Err != "" {
			t.Errorf("run %s seed=%d failed: %s", r.Group, r.Seed, r.Err)
		}
		if _, ok := r.Result.Metrics["rtt_avg_ms"]; !ok {
			t.Errorf("run %s seed=%d missing rtt_avg_ms: %v", r.Group, r.Seed, r.Result.Metrics)
		}
	}
}

// TestRunHybridSurfacesHists drives a quick hybrid sweep and checks the
// histogram sketches reach both the console summary and the JSON
// artifact's merged_hists map.
func TestRunHybridSurfacesHists(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-kinds", "hybrid",
		"-scenarios", "Central3",
		"-seeds", "1",
		"-workers", "1",
		"-quick",
		"-json", jsonPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	if !strings.Contains(out, "merged hists:") {
		t.Errorf("missing merged hists section in output:\n%s", out)
	}
	if !strings.Contains(out, "hybrid/Central3.flow_rate_mbps") {
		t.Errorf("hist key not surfaced on console:\n%s", out)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep sweepReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{
		"hybrid/Central3.flow_rate_mbps",
		"hybrid/Central3.flow_goodput_mbps",
		"hybrid/Central3.region_wire_bytes",
		"hybrid/Central3.region_gap_us",
	} {
		if h, ok := rep.MergedHists[key]; !ok || h.N == 0 {
			t.Errorf("merged_hists[%q] missing or empty (ok=%v)", key, ok)
		}
	}
}

// TestRunFlagParsing exercises the argument validators without running
// any simulation.
func TestRunFlagParsing(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown kind", []string{"-kinds", "bogus"}},
		{"unknown scenario", []string{"-scenarios", "NoSuch"}},
		{"bad seed", []string{"-seeds", "x"}},
		{"inverted seed range", []string{"-seeds", "9:1"}},
		{"bad trunk rate", []string{"-trunk-mbps", "-5"}},
		{"unknown flag", []string{"-no-such-flag"}},
		{"bad loss", []string{"-loss", "nope"}},
		{"bad loss corr", []string{"-loss", "1", "-loss-corr", "100"}},
		{"bad ge tuple arity", []string{"-loss-ge", "1"}},
		{"bad ge value", []string{"-loss-ge", "1:borked"}},
		{"ge absorbing bad state", []string{"-loss-ge", "1:0"}},
		{"bad dup", []string{"-dup-pct", "-1"}},
		{"bad corrupt", []string{"-corrupt-pct", "x"}},
		{"bad reorder pct", []string{"-reorder-ms", "2", "-reorder-pct", "120"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(context.Background(), tc.args, &buf); err == nil {
				t.Errorf("args %v accepted, want error", tc.args)
			}
		})
	}
}

// TestRunImpairDeterministic is the acceptance gate for the impairment
// pipeline's determinism: one impaired grid (every stage kind active)
// through the CLI at -workers {1,4} must produce byte-identical JSON
// artifacts. The impairment PRNGs seed from
// (run seed, link creation index, direction, stage index), none of which
// depend on scheduling, so any divergence here is a real engine bug.
func TestRunImpairDeterministic(t *testing.T) {
	dir := t.TempDir()
	baseArgs := []string{
		"-kinds", "impair,chaos",
		"-scenarios", "Central3",
		"-seeds", "1:2",
		"-loss", "1",
		"-loss-corr", "25",
		"-loss-ge", "1:25",
		"-dup-pct", "0.5",
		"-corrupt-pct", "0.2",
		"-reorder-ms", "1",
		"-chaos-flap-ms", "30",
		"-quick",
	}
	artifacts := map[string][]byte{}
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"w1", 1},
		{"w4", 4},
	} {
		jsonPath := filepath.Join(dir, cfg.name+".json")
		args := append([]string{}, baseArgs...)
		args = append(args,
			"-workers", strconv.Itoa(cfg.workers),
			"-json", jsonPath)
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatalf("%s: %v\n%s", cfg.name, err, buf.String())
		}
		raw, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		var rep sweepReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("%s: invalid JSON: %v", cfg.name, err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%s: %d runs failed:\n%s", cfg.name, rep.Failed, buf.String())
		}
		artifacts[cfg.name] = raw
	}
	if !bytes.Equal(artifacts["w1"], artifacts["w4"]) {
		t.Errorf("impaired artifact w4 differs from w1 (%d vs %d bytes)",
			len(artifacts["w4"]), len(artifacts["w1"]))
	}
	// The grid must actually have impaired something, or the bit-equality
	// above proves nothing.
	var rep sweepReport
	if err := json.Unmarshal(artifacts["w1"], &rep); err != nil {
		t.Fatal(err)
	}
	var drops float64
	for _, r := range rep.Runs {
		drops += r.Result.Metrics["impair_drops"]
	}
	if drops == 0 {
		t.Fatal("impairment grid produced zero impair_drops: pipeline inactive")
	}
}

// TestRunTwice guards the FlagSet refactor: the old global-flag version
// panicked on duplicate registration.
func TestRunTwice(t *testing.T) {
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		err := run(context.Background(), []string{
			"-kinds", "ping", "-scenarios", "Linespeed", "-seeds", "1", "-quick", "-workers", "1",
		}, &buf)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}
