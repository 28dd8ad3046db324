package sim

import (
	"sort"
	"time"
)

// Wheel is a hierarchical timer wheel layered on a Scheduler: a bulk
// lifecycle scheduler for workloads that arm and expire timers by the
// hundreds of thousands per simulated second (the churn engine's flow
// departures). Arming a wheel entry is O(1) — an append to a slot
// bucket — instead of an O(log n) heap push, and the scheduler's 4-ary
// heap only ever sees one event per firing instant, not one per timer,
// so a churn epoch costs O(expiring entries) rather than O(log n) heap
// churn per lifecycle event.
//
// Semantics are a strict subset of the Scheduler's: an entry armed for
// virtual time t fires at exactly t, and entries sharing an instant
// fire in arm order — the same (deadline, sequence) discipline as the
// heap's band-0 events, which is what the differential test in
// wheel_test.go pins (a randomized schedule armed through the wheel
// produces the identical (time, id) firing sequence as the same
// schedule armed through Scheduler.At). Relative to *non-wheel* events
// at the same instant, wheel entries fire inside the wheel's own
// scheduler event, whose position follows the ordinary insertion-
// sequence tie-break of the moment the wheel armed it; a workload that
// needs a total order across same-instant lifecycle work routes all of
// it through the wheel.
//
// The slot structure is an indexing heuristic, never a source of
// truth: every entry carries its exact deadline, expiry batches are
// sorted by (deadline, seq), and the wheel's single scheduler timer is
// always armed at the exact minimum pending deadline. Cancellation is
// lazy (the entry is reaped at its deadline, like Timer.Stop's
// cancelled-node sweep), which keeps Stop O(1) without ever letting a
// stale bucket perturb a live entry's firing time.
//
// Entries live in a recycled arena chained through int32 links, so
// steady-state arm/fire/cancel allocates nothing once the arena has
// grown to the working set.

const (
	// wheelSlots is the slot count per level (power of two: mask
	// indexing). The addressable range is the 256 top-level windows
	// starting at the wheel position's own (256^4 ticks ≈ 5 sim-days at
	// 100 µs). Deadlines beyond it are bucketed at the horizon edge and
	// re-placed as the wheel advances; they still fire at their exact
	// time (the bucket is an index, the deadline is the truth), at the
	// cost of extra cascade work.
	wheelSlots  = 256
	wheelLevels = 4
)

// wheelEntry is one pooled timer. next chains the slot bucket; gen
// tells stale WheelTimers from live ones after recycling, exactly like
// the scheduler's event arena.
type wheelEntry struct {
	at   time.Duration
	seq  uint64
	next int32

	fn   func()
	call CallFunc
	a0   any
	a1   any
	n    int

	gen       uint32
	cancelled bool
}

// Wheel schedules bulk timers onto a Scheduler. Not safe for
// concurrent use (like the Scheduler itself); create one per
// simulation.
type Wheel struct {
	sched *Scheduler
	tick  time.Duration

	// slots[l][i] heads an intrusive free-list chain of entry indices
	// (-1 = empty); count tracks population so scans skip empties
	// without walking chains. A level-l slot s covers the tick window
	// [s·256^l, (s+1)·256^l); every entry in it has deadline at or
	// after the window start — the lower-bound property the cascade
	// relies on.
	slots [wheelLevels][wheelSlots]int32
	count [wheelLevels][wheelSlots]int

	ents []wheelEntry
	free []int32

	pos     int64  // current tick floor: no entry's tick is below it
	seq     uint64 // arm order, the intra-instant tie-break
	pending int    // armed, un-cancelled, unfired entries

	// due is the current tick's expiry batch, sorted by (at, seq);
	// dueNext indexes the first unfired element. Reused scratch.
	due     []int32
	dueNext int
	sorter  dueSorter

	armed     bool
	timer     Timer
	fireFn    func()
	fireOneFn CallFunc
	expired   uint64
}

// NewWheel creates a wheel on sched with the given tick granularity
// (the level-0 slot width). Deadlines are not quantized — an entry
// fires at its exact virtual time — the tick only sets how much
// expiry batching one slot can amortize. tick must be positive.
func NewWheel(sched *Scheduler, tick time.Duration) *Wheel {
	if tick <= 0 {
		panic("sim: wheel tick must be positive")
	}
	w := &Wheel{sched: sched, tick: tick}
	for l := range w.slots {
		for i := range w.slots[l] {
			w.slots[l][i] = -1
		}
	}
	w.pos = int64(sched.Now() / tick)
	w.fireFn = w.fire // bound once: re-arming allocates nothing
	w.fireOneFn = w.fireOne
	w.sorter.w = w
	return w
}

// Pending returns the number of armed, un-cancelled entries that have
// not fired yet.
func (w *Wheel) Pending() int { return w.pending }

// Expired returns how many entries have fired — the wheel's lifecycle
// event counter.
func (w *Wheel) Expired() uint64 { return w.expired }

// WheelTimer is a cancellation handle for one wheel entry, a plain
// value like sim.Timer. The zero WheelTimer refers to no entry.
type WheelTimer struct {
	w   *Wheel
	idx int32
	gen uint32
}

// Stop cancels the entry if it has not fired, reporting whether it
// did. Cancellation is lazy: the entry stays bucketed and is reaped
// silently at its deadline.
func (t WheelTimer) Stop() bool {
	if t.w == nil {
		return false
	}
	e := &t.w.ents[t.idx]
	if e.gen != t.gen || e.cancelled {
		return false
	}
	e.cancelled = true
	t.w.pending--
	return true
}

// After arms fn to fire d after the current virtual time. Negative d
// is treated as zero.
func (w *Wheel) After(d time.Duration, fn func()) WheelTimer {
	if d < 0 {
		d = 0
	}
	return w.At(w.sched.Now()+d, fn)
}

// At arms fn to fire at absolute virtual time at (clamped to now, like
// Scheduler.At).
func (w *Wheel) At(at time.Duration, fn func()) WheelTimer {
	idx, e := w.alloc(at)
	e.fn = fn
	return w.arm(idx, e)
}

// AtCall is the allocation-free form: fn(a0, a1, n) fires at the given
// time with the arguments stored inline in the pooled entry, exactly
// like Scheduler.AtCall. Mass lifecycle timers (one per churn flow)
// use this so arming never allocates a closure.
func (w *Wheel) AtCall(at time.Duration, fn CallFunc, a0, a1 any, n int) WheelTimer {
	idx, e := w.alloc(at)
	e.call = fn
	e.a0 = a0
	e.a1 = a1
	e.n = n
	return w.arm(idx, e)
}

func (w *Wheel) alloc(at time.Duration) (int32, *wheelEntry) {
	if now := w.sched.Now(); at < now {
		at = now
	}
	var idx int32
	if n := len(w.free); n > 0 {
		idx = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		w.ents = append(w.ents, wheelEntry{})
		idx = int32(len(w.ents) - 1)
	}
	e := &w.ents[idx]
	e.at = at
	e.seq = w.seq
	w.seq++
	return idx, e
}

// arm routes the entry: same-instant entries bypass the wheel and
// become ordinary scheduler events (they fire this instant, after the
// currently-executing event, in arm order); future entries are
// bucketed, and the wheel's scheduler timer is pulled earlier if the
// new deadline beats it.
func (w *Wheel) arm(idx int32, e *wheelEntry) WheelTimer {
	w.pending++
	t := WheelTimer{w: w, idx: idx, gen: e.gen}
	if e.at <= w.sched.Now() {
		w.sched.AtCall(e.at, w.fireOneFn, nil, nil, int(idx))
		return t
	}
	w.place(idx, e)
	if !w.armed || e.at < w.timer.Deadline() {
		w.rearmAt(e.at)
	}
	return t
}

// fireOne runs a single same-instant entry scheduled directly on the
// scheduler by arm.
func (w *Wheel) fireOne(_, _ any, n int) {
	idx := int32(n)
	e := &w.ents[idx]
	fn, call, a0, a1, k := e.fn, e.call, e.a0, e.a1, e.n
	cancelled := e.cancelled
	w.release(idx)
	if cancelled {
		return
	}
	w.pending--
	w.expired++
	if fn != nil {
		fn()
	} else {
		call(a0, a1, k)
	}
}

// place buckets the entry at the lowest level whose scanned windows
// contain its deadline, relative to the wheel's current position: the
// level-l window index (tick / 256^l) may be at most 255 past pos's
// own, which is exactly the range cascadeEarliest scans. Judging by
// tick distance instead would let a window one full rotation ahead
// alias the current window's slot, where the scan clamps its start to
// pos and re-places it into the same slot forever. Deadlines beyond the
// top level's range are indexed at its last window (the deadline
// itself stays exact).
func (w *Wheel) place(idx int32, e *wheelEntry) {
	tickAt := int64(e.at / w.tick)
	if tickAt < w.pos {
		tickAt = w.pos
	}
	span := int64(1)
	for l := 0; l < wheelLevels; l++ {
		win, base := tickAt/span, w.pos/span
		if win-base < wheelSlots || l == wheelLevels-1 {
			if win-base >= wheelSlots {
				win = base + wheelSlots - 1
			}
			slot := win & (wheelSlots - 1)
			e.next = w.slots[l][slot]
			w.slots[l][slot] = idx
			w.count[l][slot]++
			return
		}
		span *= wheelSlots
	}
}

// rearmAt points the wheel's single scheduler event at the given
// deadline, lazily cancelling any previously armed one.
func (w *Wheel) rearmAt(at time.Duration) {
	if w.armed {
		w.timer.Stop()
	}
	w.armed = true
	w.timer = w.sched.At(at, w.fireFn)
}

// release recycles a popped entry.
func (w *Wheel) release(idx int32) {
	e := &w.ents[idx]
	e.fn = nil
	e.call = nil
	e.a0 = nil
	e.a1 = nil
	e.n = 0
	e.next = -1
	e.cancelled = false
	e.gen++
	w.free = append(w.free, idx)
}

// dueSorter orders the unfired suffix of the due batch by (deadline,
// seq) without allocating (sort.Sort on a cached field, not
// sort.Slice's reflective swapper).
type dueSorter struct {
	w *Wheel
	s []int32
}

func (d *dueSorter) Len() int      { return len(d.s) }
func (d *dueSorter) Swap(i, j int) { d.s[i], d.s[j] = d.s[j], d.s[i] }
func (d *dueSorter) Less(i, j int) bool {
	a, b := &d.w.ents[d.s[i]], &d.w.ents[d.s[j]]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// fire is the wheel's scheduler event: it advances the wheel to the
// current tick, merges that tick's bucket into the due batch, runs
// every entry whose deadline is now (in (deadline, seq) order), and
// re-arms for the earliest remaining deadline.
func (w *Wheel) fire() {
	w.armed = false
	now := w.sched.Now()
	tick := int64(now / w.tick)
	if w.dueNext >= len(w.due) {
		w.due = w.due[:0]
		w.dueNext = 0
	}
	if tick > w.pos {
		w.cascadeThrough(tick)
		w.pos = tick
	}

	// Merge the wheel-position slot — the initial fill on the first
	// firing of a tick, plus any entries armed into it after a previous
	// partial firing — and keep the unfired suffix sorted. The position
	// slot, not the clock-tick slot: nextDeadline advances pos to the
	// next *populated* tick, which may be ahead of real time, and place
	// clamp-buckets entries armed for ticks behind pos into pos's slot.
	// Those stragglers keep exact deadlines earlier than pos's tick, so
	// a firing for one must drain pos's slot or it would spin forever
	// re-arming a deadline the tick-slot merge can never collect.
	slot := w.pos & (wheelSlots - 1)
	if w.count[0][slot] > 0 {
		for idx := w.slots[0][slot]; idx >= 0; {
			e := &w.ents[idx]
			next := e.next
			e.next = -1
			w.due = append(w.due, idx)
			idx = next
		}
		w.slots[0][slot] = -1
		w.count[0][slot] = 0
		w.sorter.s = w.due[w.dueNext:]
		sort.Sort(&w.sorter)
		w.sorter.s = nil
	}

	// Run the due prefix. Callbacks may arm new entries: same-instant
	// ones bypass the wheel (arm's direct path) and fire after this
	// event; future ones bucket normally and are covered by the
	// re-arm below.
	for w.dueNext < len(w.due) {
		idx := w.due[w.dueNext]
		e := &w.ents[idx]
		if e.at > now {
			break
		}
		w.dueNext++
		fn, call, a0, a1, n := e.fn, e.call, e.a0, e.a1, e.n
		cancelled := e.cancelled
		w.release(idx)
		if cancelled {
			continue
		}
		w.pending--
		w.expired++
		if fn != nil {
			fn()
		} else {
			call(a0, a1, n)
		}
	}

	// Re-arm at the earliest remaining deadline: the unfired remainder
	// of this tick's batch, a callback-armed entry (already armed), or
	// the next bucketed deadline.
	if w.dueNext < len(w.due) {
		if at := w.ents[w.due[w.dueNext]].at; !w.armed || at < w.timer.Deadline() {
			w.rearmAt(at)
		}
		return
	}
	if at, ok := w.nextDeadline(); ok && (!w.armed || at < w.timer.Deadline()) {
		w.rearmAt(at)
	}
}

// cascadeThrough opens, in window-start order, every higher-level slot
// whose window begins at or before tick, so that all entries with
// ticks <= tick end up in level 0. Cost is proportional to the slots
// actually crossed that hold entries.
func (w *Wheel) cascadeThrough(tick int64) {
	for w.cascadeEarliest(tick) {
	}
}

// cascadeEarliest finds the populated higher-level slot with the
// smallest window start (clamped to pos) at or below bound and
// redistributes it one level down, advancing pos to the window start.
// Choosing the minimum across levels before moving pos is what makes
// the jump safe: every other entry's deadline is bounded below by its
// own slot's window start, which is no smaller. Reports whether a
// slot was cascaded.
func (w *Wheel) cascadeEarliest(bound int64) bool {
	bestL := -1
	var bestSlot int32
	var bestStart int64
	span := int64(wheelSlots)
	for l := 1; l < wheelLevels; l++ {
		base := w.pos / span
		for off := int64(0); off < wheelSlots; off++ {
			s := base + off
			slot := int32(s & (wheelSlots - 1))
			if w.count[l][slot] == 0 {
				continue
			}
			start := s * span
			if start < w.pos {
				start = w.pos
			}
			if start <= bound && (bestL < 0 || start < bestStart) {
				bestL, bestSlot, bestStart = l, slot, start
			}
			break // slots scan in increasing start: first populated is the level's min
		}
		span *= wheelSlots
	}
	if bestL < 0 {
		return false
	}
	if bestStart > w.pos {
		w.pos = bestStart
	}
	head := w.slots[bestL][bestSlot]
	w.slots[bestL][bestSlot] = -1
	w.count[bestL][bestSlot] = 0
	for idx := head; idx >= 0; {
		e := &w.ents[idx]
		next := e.next
		e.next = -1
		w.place(idx, e)
		idx = next
	}
	return true
}

// nextDeadline returns the exact earliest deadline among all bucketed
// entries (cancelled ones included — they are reaped at their own
// deadline), cascading higher-level windows down as needed. Scan cost
// is bounded by slots per level, independent of entry count.
func (w *Wheel) nextDeadline() (time.Duration, bool) {
	for {
		// Earliest populated level-0 tick in the window [pos, pos+256).
		t0 := int64(-1)
		for s := w.pos; s < w.pos+wheelSlots; s++ {
			if w.count[0][s&(wheelSlots-1)] > 0 {
				t0 = s
				break
			}
		}
		// A higher-level window opening at or before t0 may hold
		// earlier entries: open it and rescan. With no level-0
		// candidate, open the earliest higher-level window
		// unconditionally.
		bound := t0
		if bound < 0 {
			bound = int64(1)<<62 - 1
		}
		if w.cascadeEarliest(bound) {
			continue
		}
		if t0 < 0 {
			return 0, false
		}
		if t0 > w.pos {
			w.pos = t0
		}
		best := time.Duration(-1)
		for idx := w.slots[0][t0&(wheelSlots-1)]; idx >= 0; idx = w.ents[idx].next {
			if e := &w.ents[idx]; best < 0 || e.at < best {
				best = e.at
			}
		}
		return best, true
	}
}
