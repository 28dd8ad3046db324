package experiment

import (
	"fmt"
	"math"
	"strings"
	"time"

	"netco/internal/metrics"
)

// Kind enumerates the experiment units the sweep runner can schedule.
// Each is a pure function of (Params, Scenario, seed): it builds a fresh
// testbed — its own scheduler, pools and engines — runs to completion,
// and returns a flat Result. Nothing is shared between invocations, so
// any number may run concurrently on separate goroutines.
type Kind int

// Schedulable experiment kinds.
const (
	// KindTCP is the Fig. 4 measurement: TCP bulk goodput.
	KindTCP Kind = iota + 1
	// KindUDP is the Fig. 5 measurement: max UDP rate under the loss goal.
	KindUDP
	// KindPing is the Fig. 7 measurement: ICMP echo RTT.
	KindPing
	// KindJitter is the Fig. 8 measurement: UDP jitter across packet sizes.
	KindJitter
	// KindHybrid runs the hybrid fluid/packet traffic engine's sweep
	// unit: a small fat-tree fluid fabric with a packet-exact combiner
	// region (see RunHybrid). The scenario only selects labelling — the
	// region is always a Central3 combiner.
	KindHybrid
	// KindChaos measures availability under lifecycle churn: a UDP
	// stream through the scenario while routers crash and restart, a
	// trunk link flaps and (optionally) the compare bounces, plus the
	// recovery latency after the last heal (see RunChaos).
	KindChaos
	// KindImpair measures UDP delivery with the Params.Impair pipeline
	// (loss models, corruption, duplication, reordering) on every trunk
	// — the goodput-surface unit for impairment grids (see RunImpair).
	KindImpair
	// KindChurn runs the flow-lifecycle churn engine: an open
	// arrival/departure workload over a fat-tree fluid fabric,
	// measuring lifecycle throughput with arena recycling, incremental
	// per-component settle and wheel-timed departures (see RunChurn).
	// The scenario only labels the run.
	KindChurn
)

// kindNames is the single source of kind names, indexed by Kind.
var kindNames = [...]string{
	KindTCP:    "tcp",
	KindUDP:    "udp",
	KindPing:   "ping",
	KindJitter: "jitter",
	KindHybrid: "hybrid",
	KindChaos:  "chaos",
	KindImpair: "impair",
	KindChurn:  "churn",
}

// AllKinds lists every schedulable kind, in declaration order.
var AllKinds = func() []Kind {
	ks := make([]Kind, 0, len(kindNames)-1)
	for k := KindTCP; int(k) < len(kindNames); k++ {
		ks = append(ks, k)
	}
	return ks
}()

// String names the kind for CLIs and artifacts.
func (k Kind) String() string {
	if k < KindTCP || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// ParseKind is the inverse of Kind.String.
func ParseKind(name string) (Kind, error) {
	for _, k := range AllKinds {
		if strings.EqualFold(name, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown kind %q (want %s)", name, strings.Join(kindNames[KindTCP:], ", "))
}

// ParseScenario resolves a paper scenario name (case-insensitive).
func ParseScenario(name string) (Scenario, error) {
	for s := ScenLinespeed; s <= ScenInline3; s++ {
		if strings.EqualFold(name, s.String()) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("experiment: unknown scenario %q", name)
}

// Result is one experiment run's outcome in a flat, merge-friendly form:
// scalar metrics for reporting plus summaries the sweep runner merges
// across runs of the same (kind, scenario) group. All fields marshal
// deterministically (encoding/json sorts map keys), which is what lets
// the sweep CLI promise byte-identical artifacts regardless of worker
// count.
type Result struct {
	Kind     string `json:"kind"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	// Metrics holds the run's scalar measurements. NaN/Inf values (e.g.
	// statistics of an empty sample set) are omitted rather than faked
	// as zeros — JSON cannot carry them.
	Metrics map[string]float64 `json:"metrics"`
	// Summaries holds the run's distributions, mergeable across runs via
	// metrics.Summary.Merge.
	Summaries map[string]metrics.Summary `json:"summaries,omitempty"`
	// Hists holds the run's streaming histogram sketches (hybrid runs'
	// per-flow rate/goodput distributions), mergeable across runs via
	// metrics.Hist.Merge.
	Hists map[string]metrics.Hist `json:"hists,omitempty"`
}

// setMetric records a scalar, dropping non-finite values.
func (r *Result) setMetric(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Metrics[name] = v
}

func (r *Result) addSummary(name string, s metrics.Summary) {
	if s.N() == 0 {
		return
	}
	if r.Summaries == nil {
		r.Summaries = make(map[string]metrics.Summary)
	}
	r.Summaries[name] = s
}

// Run executes one experiment kind as a pure function of its inputs. The
// seed argument overrides p.Seed, so a sweep can fan one Params out
// across a seed grid without mutating shared state. Run never shares
// schedulers, pools or engines with other invocations; it is safe to
// call from many goroutines at once.
func Run(k Kind, p Params, s Scenario, seed int64) Result {
	p.Seed = seed
	res := Result{
		Kind:     k.String(),
		Scenario: s.String(),
		Seed:     seed,
		Metrics:  make(map[string]float64),
	}
	switch k {
	case KindTCP:
		tr := RunTCP(p, s)
		res.setMetric("tcp_mbps", tr.Mbps)
		res.setMetric("tcp_retransmits", float64(tr.Retransmits))
		res.setMetric("tcp_timeouts", float64(tr.Timeouts))
		res.setMetric("tcp_dup_acks", float64(tr.DupAcks))
		var runs metrics.Summary
		for _, mbps := range tr.Runs {
			runs.Add(mbps)
		}
		res.addSummary("tcp_mbps", runs)
	case KindUDP:
		ur := RunUDPMax(p, s)
		res.setMetric("udp_mbps", ur.Mbps)
		res.setMetric("udp_loss", ur.Loss)
		var runs metrics.Summary
		runs.Add(ur.Mbps)
		res.addSummary("udp_mbps", runs)
	case KindPing:
		pr := RunPing(p, s)
		res.setMetric("ping_sent", float64(pr.Sent))
		res.setMetric("ping_received", float64(pr.Received))
		if pr.Received > 0 {
			res.setMetric("rtt_avg_ms", pr.AvgRTT.Seconds()*1e3)
			res.setMetric("rtt_min_ms", pr.MinRTT.Seconds()*1e3)
			res.setMetric("rtt_max_ms", pr.MaxRTT.Seconds()*1e3)
			var rtt metrics.Summary
			rtt.Add(pr.AvgRTT.Seconds() * 1e3)
			res.addSummary("rtt_avg_ms", rtt)
		}
	case KindJitter:
		var across metrics.Summary
		for _, pt := range RunJitter(p, s, nil) {
			us := float64(pt.Jitter) / float64(time.Microsecond)
			res.setMetric(fmt.Sprintf("jitter_us_%dB", pt.PayloadSize), us)
			res.setMetric(fmt.Sprintf("loss_%dB", pt.PayloadSize), pt.Loss)
			across.Add(us)
		}
		res.addSummary("jitter_us", across)
	case KindHybrid:
		hp := DefaultHybridParams()
		hp.Duration = p.UDPDuration
		hr := RunHybrid(p, hp)
		res.setMetric("hybrid_flows", float64(hr.Flows))
		res.setMetric("hybrid_cross_flows", float64(hr.CrossFlows))
		res.setMetric("hybrid_events", float64(hr.Events))
		res.setMetric("hybrid_settles", float64(hr.Settles))
		res.setMetric("hybrid_promotions", float64(hr.Promotions))
		res.setMetric("hybrid_demotions", float64(hr.Demotions))
		res.setMetric("hybrid_event_ratio", hr.EventRatio)
		res.setMetric("fluid_goodput_mbps", hr.FluidDeliveredBits/hp.Duration.Seconds()/1e6)
		var good metrics.Summary
		good.Add(hr.FluidDeliveredBits / hp.Duration.Seconds() / 1e6)
		res.addSummary("fluid_goodput_mbps", good)
		res.Hists = hr.Hists
	case KindChaos:
		cr := RunChaos(p, s)
		res.setMetric("chaos_sent", float64(cr.Sent))
		res.setMetric("chaos_delivered", float64(cr.Delivered))
		res.setMetric("chaos_dups", float64(cr.Dups))
		res.setMetric("delivered_frac", cr.DeliveredFrac)
		res.setMetric("chaos_crashes", float64(cr.Crashes))
		res.setMetric("chaos_flap_cycles", float64(cr.FlapCycles))
		res.setMetric("last_heal_ms", cr.LastHeal.Seconds()*1e3)
		if cr.Recovered {
			res.setMetric("recovery_ms", cr.Recovery.Seconds()*1e3)
			var rec metrics.Summary
			rec.Add(cr.Recovery.Seconds() * 1e3)
			res.addSummary("recovery_ms", rec)
		}
		var frac metrics.Summary
		frac.Add(cr.DeliveredFrac)
		res.addSummary("delivered_frac", frac)
		if p.Impair.Enabled() {
			// Chaos under impairment: surface the pipeline's accounting so
			// the grid can separate modelled wire loss from outage loss.
			res.setMetric("impair_drops", float64(cr.Impair.ImpairDrops))
			res.setMetric("impair_corrupted", float64(cr.Impair.Corrupted))
			res.setMetric("impair_duplicated", float64(cr.Impair.Duplicated))
			res.setMetric("impair_reordered", float64(cr.Impair.Reordered))
		}
	case KindChurn:
		hp := DefaultHybridParams()
		hp.Duration = p.UDPDuration
		cr := RunChurn(p, hp)
		res.setMetric("churn_arrivals", float64(cr.Arrivals))
		res.setMetric("churn_departures", float64(cr.Departures))
		res.setMetric("churn_peak_live", float64(cr.PeakLive))
		res.setMetric("churn_recycled", float64(cr.Recycled))
		res.setMetric("churn_settles", float64(cr.Settles))
		res.setMetric("churn_components_solved", float64(cr.ComponentsSolved))
		res.setMetric("churn_wheel_expired", float64(cr.WheelExpired))
		res.setMetric("arrivals_per_sim_s", cr.ArrivalsPerSimSec)
		res.setMetric("lifecycle_events_per_sim_s", cr.LifecycleEventsPerSimSec)
		res.setMetric("churn_goodput_mbps", cr.DeliveredBits/hp.Duration.Seconds()/1e6)
		var rate metrics.Summary
		rate.Add(cr.LifecycleEventsPerSimSec)
		res.addSummary("lifecycle_events_per_sim_s", rate)
	case KindImpair:
		ir := RunImpair(p, s)
		res.setMetric("impair_sent", float64(ir.Sent))
		res.setMetric("impair_delivered", float64(ir.Delivered))
		res.setMetric("impair_dups", float64(ir.Dups))
		res.setMetric("delivered_frac", ir.DeliveredFrac)
		res.setMetric("goodput_mbps", ir.GoodputMbps)
		res.setMetric("impair_drops", float64(ir.Counters.ImpairDrops))
		res.setMetric("impair_corrupted", float64(ir.Counters.Corrupted))
		res.setMetric("impair_duplicated", float64(ir.Counters.Duplicated))
		res.setMetric("impair_reordered", float64(ir.Counters.Reordered))
		var frac metrics.Summary
		frac.Add(ir.DeliveredFrac)
		res.addSummary("delivered_frac", frac)
		var good metrics.Summary
		good.Add(ir.GoodputMbps)
		res.addSummary("goodput_mbps", good)
	default:
		panic(fmt.Sprintf("experiment: unknown Kind %d", k))
	}
	return res
}
