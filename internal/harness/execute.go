package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/bits"
	"sort"
	"time"

	"netco/internal/adversary"
	"netco/internal/core"
	"netco/internal/packet"
	"netco/internal/trace"
	"netco/internal/traffic"
)

// Observation is the canonical artifact of one execution: everything the
// determinism oracle compares, serialised with encoding/json (fixed field
// order, no maps) so equal observations are equal bytes.
type Observation struct {
	// Released has one entry per (combiner, edge) direction, in that
	// order.
	Released []DirObs `json:"released"`
	// Alarms lists every compare alarm in the order it fired.
	Alarms []AlarmObs `json:"alarms"`
	// Flows reports per-flow outcomes in scenario order.
	Flows []FlowObs `json:"flows"`
	// TraceDigests fingerprints router 0's transmission trace in each
	// combiner (the trace-artifact half of the determinism oracle).
	TraceDigests []string `json:"trace_digests"`
	// Recovery reports the post-chaos liveness probe (chaos scenarios
	// only).
	Recovery *RecoveryObs `json:"recovery,omitempty"`
	// Activity sums every adversary counter; DetectableActivity only the
	// counters of behaviors that provably leave a compare-visible trace
	// (see detection oracle notes in oracle.go).
	Activity           uint64 `json:"activity"`
	DetectableActivity uint64 `json:"detectable_activity"`
}

// DirObs summarises one direction's compare egress.
type DirObs struct {
	Combiner int `json:"combiner"`
	Edge     int `json:"edge"`
	// Count is released frames; SeqDigest fingerprints the raw release
	// sequence in order; SetDigest fingerprints the sorted multiset of
	// IP-ID-normalised frame digests (the masking oracle's comparand —
	// order- and IP-ID-insensitive, content-sensitive).
	Count     int    `json:"count"`
	SeqDigest string `json:"seq_digest"`
	SetDigest string `json:"set_digest"`
}

// AlarmObs is one compare alarm.
type AlarmObs struct {
	Combiner int    `json:"combiner"`
	Edge     int    `json:"edge"`
	Kind     string `json:"kind"`
	Router   int    `json:"router"`
	AtNs     int64  `json:"at_ns"`
	Copies   int    `json:"copies,omitempty"`
}

// FlowObs is one flow's outcome.
type FlowObs struct {
	Kind string `json:"kind"`
	// Ping: Sent/Received cycles. UDP: Sent datagrams, Received unique.
	// TCP: Sent segments, Received goodput bytes.
	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
	Dups     uint64 `json:"dups,omitempty"`
	Done     bool   `json:"done,omitempty"`
}

// RecoveryObs is the outcome of the recovery probe: pings launched a
// grace period after the chaos plan's last heal.
type RecoveryObs struct {
	// LastHealMs is the final heal instant, window-relative.
	LastHealMs    int64  `json:"last_heal_ms"`
	ProbeSent     uint64 `json:"probe_sent"`
	ProbeReceived uint64 `json:"probe_received"`
}

// Violation is one oracle failure.
type Violation struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

// Oracle names.
const (
	OracleMasking     = "masking"
	OracleDetection   = "detection"
	OracleNoForgery   = "no-forgery"
	OracleDeterminism = "determinism"
	OracleRecovery    = "recovery"
)

// RunResult is one execution's outcome: the observation plus the
// violations decidable from a single run (no-forgery, detection).
type RunResult struct {
	Obs        Observation
	Violations []Violation
}

// CanonicalJSON renders the observation to its canonical byte form.
func (o Observation) CanonicalJSON() []byte {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // struct of plain fields; cannot fail
	}
	return b
}

// dirTap accumulates one direction's release stream.
type dirTap struct {
	count    int
	seq      hash.Hash
	multiset []string
}

// emitKey identifies a frame a router put on the wire toward one edge.
type emitKey struct {
	edge   int
	digest packet.Digest
}

// combTap observes one combiner: which routers emitted which frames and
// whose copies reached the compare wire-corrupted (the no-forgery
// ledger), and what the compare released. All of a tap's
// state is written only from its combiner's domain, so taps need no
// locking under the partitioned engine; alarms and violations are
// collected per combiner and merged deterministically after the run
// (identically in serial mode, so observations stay byte-identical).
type combTap struct {
	emitted map[emitKey]uint16 // bitmask of router indices
	// corrupted is the wire's share of the ledger: the routers whose
	// copy of a frame reached the compare with these bytes because a
	// trunk Corrupt stage flipped a bit (Meta.Corrupted). Two copies can
	// take the same flip, and the compare rightly releases that equal
	// pair as a majority; the ledger credits such a release to the wire
	// instead of calling it a router forgery.
	corrupted map[emitKey]uint16
	// released is every released frame in release order. The no-forgery
	// verdict is deferred to end-of-run, when the emission ledger is
	// complete: under a weakened release threshold plus trunk reordering,
	// the compare can legitimately release the first copy before the
	// *other* routers have transmitted theirs, so a release-time mask
	// read would misfire on honest frames. A genuinely forged frame is
	// never majority-emitted at any point, so deferral loses nothing.
	released   []emitKey
	dirs       [2]*dirTap
	tracer     *trace.Tracer
	alarms     []AlarmObs
	violations []Violation
}

// Execute runs the scenario once on the serial engine and returns its
// observation plus the single-run oracle verdicts. It is a pure function
// of the scenario: the whole simulation (scheduler, pools, engines) is
// built and discarded inside, so concurrent Executes are safe.
func Execute(sc Scenario) (RunResult, error) { return ExecuteP(sc, 1) }

// ExecuteP is Execute on the conservative parallel engine with the given
// domain count (1 = serial). The observation is bit-identical to the
// serial one at every partition count — that is the tentpole guarantee,
// and Check enforces it as part of the determinism oracle.
func ExecuteP(sc Scenario, partitions int) (RunResult, error) {
	if err := sc.Validate(); err != nil {
		return RunResult{}, err
	}
	f := buildFabric(sc, partitions)
	defer f.close()

	// Taps. Router OnTransmit feeds the no-forgery ledger; the compare's
	// OnRelease hook records every release for the end-of-run ledger
	// check and feeds the per-direction release digests.
	var res RunResult
	taps := make([]*combTap, len(f.combs))
	majority := sc.K/2 + 1
	forgeryChecked := sc.K >= 3 // k=2 releases on first copy by design
	for ci, comb := range f.combs {
		tap := &combTap{emitted: make(map[emitKey]uint16), corrupted: make(map[emitKey]uint16)}
		for d := 0; d < 2; d++ {
			tap.dirs[d] = &dirTap{seq: sha256.New()}
		}
		tap.tracer = trace.New(512)
		tap.tracer.Attach(comb.Routers[0])
		taps[ci] = tap

		for ri, r := range comb.Routers {
			ri := ri
			r.OnTransmit = func(outPort int, pkt *packet.Packet) {
				if outPort != core.RouterPortLeft && outPort != core.RouterPortRight {
					return
				}
				key := emitKey{edge: outPort, digest: packet.DigestBytes(pkt.Marshal())}
				tap.emitted[key] |= 1 << ri
			}
		}
		if forgeryChecked {
			for ei, edge := range [2]*core.EdgeSwitch{comb.Left, comb.Right} {
				ei := ei
				edge.OnToCompare = func(ri int, pkt *packet.Packet) {
					if pkt.Meta.Corrupted {
						key := emitKey{edge: ei, digest: packet.DigestBytes(pkt.Marshal())}
						tap.corrupted[key] |= 1 << ri
					}
				}
			}
		}
		ci := ci
		comb.Compare.OnRelease = func(edgeID int, wire []byte) {
			d := tap.dirs[edgeID]
			d.count++
			d.seq.Write(wire)
			d.multiset = append(d.multiset, normalizedDigest(wire))
			if forgeryChecked {
				tap.released = append(tap.released, emitKey{edge: edgeID, digest: packet.DigestBytes(wire)})
			}
		}
		comb.Compare.OnAlarm = func(a core.Alarm) {
			tap.alarms = append(tap.alarms, AlarmObs{
				Combiner: ci,
				Edge:     a.Edge,
				Kind:     alarmKind(a.Kind),
				Router:   a.Router,
				AtNs:     int64(a.At),
				Copies:   a.Copies,
			})
		}
	}

	// Traffic, plus the recovery probe when the scenario injects faults.
	flows := startFlows(f, sc)
	var probe *traffic.Pinger
	var lastHeal time.Duration
	if len(sc.Chaos) > 0 {
		lastHeal = sc.chaosPlan().LastRecovery()
		probe = startRecoveryProbe(f, lastHeal)
	}

	// Run the fixed timeline to quiescence.
	f.runner.RunUntil(settleTime + windowTime + drainTime)

	// No-forgery, against the now-complete ledger: every released frame
	// must have reached the compare from a strict majority of its
	// combiner's routers, each copy either emitted with these bytes by
	// its router or corrupted into them on the wire.
	for ci, tap := range taps {
		for _, key := range tap.released {
			if n := bits.OnesCount16(tap.emitted[key] | tap.corrupted[key]); n < majority {
				tap.violations = append(tap.violations, Violation{
					Oracle: OracleNoForgery,
					Detail: fmt.Sprintf("combiner %d edge %d released a frame emitted or wire-corrupted by %d of %d routers (majority %d)",
						ci, key.edge, n, sc.K, majority),
				})
			}
		}
	}

	// Merge the per-combiner streams canonically: alarms globally by
	// firing time (stable, so same-instant alarms order by combiner,
	// then per-combiner firing order); violations in combiner order.
	for _, tap := range taps {
		res.Obs.Alarms = append(res.Obs.Alarms, tap.alarms...)
		res.Violations = append(res.Violations, tap.violations...)
	}
	sort.SliceStable(res.Obs.Alarms, func(i, j int) bool {
		return res.Obs.Alarms[i].AtNs < res.Obs.Alarms[j].AtNs
	})

	// Collect.
	for ci := range f.combs {
		for d := 0; d < 2; d++ {
			tap := taps[ci].dirs[d]
			sort.Strings(tap.multiset)
			set := sha256.New()
			for _, dg := range tap.multiset {
				set.Write([]byte(dg))
			}
			res.Obs.Released = append(res.Obs.Released, DirObs{
				Combiner:  ci,
				Edge:      d,
				Count:     tap.count,
				SeqDigest: hex.EncodeToString(tap.seq.Sum(nil)),
				SetDigest: hex.EncodeToString(set.Sum(nil)),
			})
		}
		tr := sha256.New()
		for _, rec := range taps[ci].tracer.Records() {
			tr.Write([]byte(rec.String()))
		}
		res.Obs.TraceDigests = append(res.Obs.TraceDigests, hex.EncodeToString(tr.Sum(nil)))
	}
	res.Obs.Flows = flows.observe()
	res.Obs.Activity, res.Obs.DetectableActivity = activity(f, sc)

	// Single-run oracles beyond no-forgery: detection (Theorem 2) —
	// skipped under chaos, where an outage window can legitimately swallow
	// the interference evidence before the compare sees it, and under
	// impairment, where wire loss can do the same to the mismatched copy.
	if sc.K == 2 && len(sc.Chaos) == 0 && !sc.Impaired() &&
		res.Obs.DetectableActivity > 0 && len(res.Obs.Alarms) == 0 {
		res.Violations = append(res.Violations, Violation{
			Oracle: OracleDetection,
			Detail: fmt.Sprintf("k=2 adversary interfered with %d packets but no alarm fired", res.Obs.DetectableActivity),
		})
	}

	// Recovery: after the last heal the fabric must carry traffic again.
	if probe != nil {
		r := probe.Result()
		res.Obs.Recovery = &RecoveryObs{
			LastHealMs:    int64((lastHeal - settleTime) / time.Millisecond),
			ProbeSent:     uint64(r.Sent),
			ProbeReceived: uint64(r.Received),
		}
		// An impaired fabric can legitimately eat every probe (a GE burst
		// straddling the grace period kills all three pings), so the
		// violation is gated; RecoveryObs is still recorded and the
		// determinism oracle still covers it.
		if r.Received == 0 && !sc.Impaired() {
			res.Violations = append(res.Violations, Violation{
				Oracle: OracleRecovery,
				Detail: fmt.Sprintf("no probe echo returned after the last heal at %v — the fabric did not recover", lastHeal),
			})
		}
	}
	return res, nil
}

// Recovery probe timing: the probe starts a grace period after the last
// heal (re-handshakes and rule replay settle in microseconds; the grace
// absorbs them with margin) and its last timeout expires well inside the
// drain for every plan Validate accepts.
const (
	recoveryGrace    = 5 * time.Millisecond
	recoveryProbes   = 3
	recoveryInterval = 5 * time.Millisecond
	recoveryTimeout  = 30 * time.Millisecond
	// recoveryProbeID keeps the probe's ICMP stream clear of scenario ping
	// flows (IDs 1..16).
	recoveryProbeID = 0x7e57
)

// startRecoveryProbe schedules the post-chaos liveness probe during
// single-threaded setup, on h1's own scheduler.
func startRecoveryProbe(f *fabric, lastHeal time.Duration) *traffic.Pinger {
	p := traffic.NewPinger(f.h1, f.h2.Endpoint(0), traffic.PingerConfig{
		Count:    recoveryProbes,
		Interval: recoveryInterval,
		Timeout:  recoveryTimeout,
		ID:       recoveryProbeID,
	})
	f.schedOf("h1").After(lastHeal+recoveryGrace, func() { p.Run(nil) })
	return p
}

// normalizedDigest fingerprints a released frame with the IP ID zeroed
// (and checksums recomputed). Hosts stamp IP IDs from a shared per-host
// counter, so cross-flow send interleaving — which adversarial timing
// perturbation legitimately shifts — leaks into frame bytes; everything
// else in the frame is content the masking property must preserve.
func normalizedDigest(wire []byte) string {
	pkt, err := packet.Unmarshal(wire)
	if err != nil || pkt.IP == nil {
		d := packet.DigestBytes(wire)
		return hex.EncodeToString(d[:])
	}
	pkt.IP.ID = 0
	d := packet.DigestBytes(pkt.Marshal())
	return hex.EncodeToString(d[:])
}

func alarmKind(k core.EventKind) string {
	switch k {
	case core.EventDoS:
		return "dos"
	case core.EventPortSilent:
		return "port-silent"
	case core.EventDetection:
		return "detection"
	default:
		return fmt.Sprintf("event-%d", int(k))
	}
}

// activity sums the adversary counters after a run. The second return
// only counts behaviors whose interference provably reaches the compare:
// reroute (the diverted copy is missing at the target edge), drop,
// modify, replay with Extra ≥ 2 (crosses the DoS threshold) and flood.
// Mirror is excluded — a mirrored copy bounced at a host-attached edge
// dies on the ingress spoof check, which is a defense, not an alarm.
func activity(f *fabric, sc Scenario) (total, detectable uint64) {
	for _, a := range sc.Adversaries {
		atoms := f.behaviors[a.Router].(adversary.Chain)
		total += adversary.Activity(atoms)
		for i, atom := range atoms {
			act := adversary.Activity(atom)
			if act == 0 {
				continue
			}
			switch a.Chain[i].Kind {
			case AtomReroute, AtomDrop, AtomModify, AtomFlood:
				detectable += act
			case AtomReplay:
				if act >= 2 {
					detectable += act
				}
			}
		}
	}
	return total, detectable
}

// runningFlows holds live traffic objects so outcomes can be read after
// the run.
type runningFlows struct {
	specs   []Flow
	pingers []*traffic.Pinger
	udpSrc  []*traffic.UDPSource
	udpSink []*traffic.UDPSink
	tcp     []*traffic.TCPFlow
}

// startFlows schedules every flow on the fixed timeline: flow i starts
// at settle + i·stagger; UDP sources stop at the window end; TCP and
// ping are self-bounding. Endpoints are constructed during this single-
// threaded setup phase; each start/stop event is scheduled on its source
// host's own scheduler, so flows work unchanged under partitioning.
func startFlows(f *fabric, sc Scenario) *runningFlows {
	rf := &runningFlows{specs: sc.Flows}
	rf.pingers = make([]*traffic.Pinger, len(sc.Flows))
	rf.udpSrc = make([]*traffic.UDPSource, len(sc.Flows))
	rf.udpSink = make([]*traffic.UDPSink, len(sc.Flows))
	rf.tcp = make([]*traffic.TCPFlow, len(sc.Flows))
	for i, fl := range sc.Flows {
		fl := fl
		src, dst := f.h1, f.h2
		if fl.Reverse {
			src, dst = f.h2, f.h1
		}
		srcSched := f.schedOf(src.Name())
		basePort := uint16(40000 + i*16)
		start := settleTime + time.Duration(i)*flowStagger
		switch fl.Kind {
		case FlowPing:
			p := traffic.NewPinger(src, dst.Endpoint(0), traffic.PingerConfig{
				Count:    fl.Count,
				Interval: 10 * time.Millisecond,
				Timeout:  50 * time.Millisecond,
				ID:       uint16(1 + i),
			})
			rf.pingers[i] = p
			srcSched.After(start, func() { p.Run(nil) })
		case FlowUDP:
			sink := traffic.NewUDPSink(dst, basePort+1)
			s := traffic.NewUDPSource(src, basePort, dst.Endpoint(basePort+1), traffic.UDPSourceConfig{
				Rate:        fl.RateMbps * 1e6,
				PayloadSize: fl.PayloadSize,
			})
			rf.udpSrc[i], rf.udpSink[i] = s, sink
			srcSched.After(start, s.Start)
			srcSched.After(settleTime+windowTime, s.Stop)
		case FlowTCP:
			t := traffic.NewTCPFlow(src, dst, basePort, basePort+1, traffic.TCPConfig{
				MaxBytes: uint32(fl.KiB) << 10,
			})
			rf.tcp[i] = t
			srcSched.After(start, t.Start)
		}
	}
	return rf
}

func (rf *runningFlows) observe() []FlowObs {
	obs := make([]FlowObs, len(rf.specs))
	for i, fl := range rf.specs {
		o := FlowObs{Kind: fl.Kind}
		switch fl.Kind {
		case FlowPing:
			r := rf.pingers[i].Result()
			o.Sent = uint64(r.Sent)
			o.Received = uint64(r.Received)
			o.Dups = uint64(r.Duplicates)
		case FlowUDP:
			o.Sent = rf.udpSrc[i].Sent
			st := rf.udpSink[i].Stats()
			o.Received = st.Unique
			o.Dups = st.Duplicates
		case FlowTCP:
			if t := rf.tcp[i]; t != nil {
				st := t.Stats()
				o.Sent = st.SegmentsSent
				o.Received = st.GoodputBytes
				o.Done = t.Done()
			}
		}
		obs[i] = o
	}
	return obs
}
