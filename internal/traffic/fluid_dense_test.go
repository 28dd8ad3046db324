package traffic

import (
	"strings"
	"testing"
	"time"

	"netco/internal/netem"
)

// TestFluidSetCapacityNoOps covers the dense direction table's edges:
// SetCapacity on a direction no flow has touched (inside the table), on
// a link whose index lies past the table, and on a link built outside
// a Network must neither panic nor schedule a settle.
func TestFluidSetCapacityNoOps(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6, 10e6, 10e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	a := fn.NewFlow(8e6, []Hop{{Link: links[1], End: 0}})
	a.Start()
	sched.RunFor(10 * time.Millisecond)
	settles := fn.Settles()

	fn.SetCapacity(links[1], 1, 1e6) // reverse direction: untouched, inside the table
	fn.SetCapacity(links[0], 0, 1e6) // lower index: untouched, inside the table
	fn.SetCapacity(links[2], 0, 1e6) // index past the table
	fn.SetCapacity(netem.NewLink(sched, "stray", netem.LinkConfig{}), 0, 1e6)
	sched.RunFor(20 * time.Millisecond)
	if fn.Settles() != settles {
		t.Fatalf("no-op SetCapacity calls ran %d settles", fn.Settles()-settles)
	}
	if a.Rate() != 8e6 {
		t.Fatalf("rate = %v, want 8e6", a.Rate())
	}
}

// TestFluidHopOutsideNetworkPanics checks that a hop the dense table
// cannot index — a link built outside a netem.Network, or an end other
// than 0 or 1 — panics with a message naming the cause.
func TestFluidHopOutsideNetworkPanics(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6})
	fn := NewFluidNet(sched, FluidConfig{})
	for _, h := range []Hop{
		{Link: netem.NewLink(sched, "stray", netem.LinkConfig{}), End: 0},
		{Link: links[0], End: 2},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "netem.Network") {
					t.Fatalf("hop %+v: panic %q, want one naming netem.Network", h, msg)
				}
			}()
			fn.NewFlow(1e6, []Hop{h})
		}()
	}
}

// TestFluidDirsFirstTouchOrder pins fn.dirs to first-touch order, not
// link-index order: FullResettle seeds directions in this order, so it
// is part of the determinism contract.
func TestFluidDirsFirstTouchOrder(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6, 10e6, 10e6, 10e6})
	fn := NewFluidNet(sched, FluidConfig{})
	fn.NewFlow(1e6, []Hop{{Link: links[3], End: 1}, {Link: links[1], End: 0}})
	fn.NewFlow(1e6, []Hop{{Link: links[1], End: 0}, {Link: links[3], End: 0}, {Link: links[0], End: 0}})
	fn.NewFlow(1e6, []Hop{{Link: links[3], End: 1}, {Link: links[2], End: 1}})
	want := []Hop{
		{Link: links[3], End: 1},
		{Link: links[1], End: 0},
		{Link: links[3], End: 0},
		{Link: links[0], End: 0},
		{Link: links[2], End: 1},
	}
	if len(fn.dirs) != len(want) {
		t.Fatalf("%d directions, want %d", len(fn.dirs), len(want))
	}
	for i, d := range fn.dirs {
		if d.link != want[i].Link || d.end != want[i].End {
			t.Fatalf("dirs[%d] = (%s, %d), want (%s, %d)",
				i, d.link.Name(), d.end, want[i].Link.Name(), want[i].End)
		}
	}
}
