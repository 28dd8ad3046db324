package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"netco"
	"netco/internal/harness"
)

// A workload runs once per child process and fills in a sample. The
// untraced paths call only netco entry points (fuzz: the harness
// functions netco-fuzz uses, which netco does not re-export) and set no
// engine knob — settle workers, partitions and build workers stay at
// their defaults — so the benchmark survives those knobs being deleted.
type workload struct {
	name string
	run  func(seed int64) (sample, error)
}

// workloads in the order `--workload all` runs them.
var workloads = []workload{
	{"churn", runChurn},
	{"hybrid", runHybrid},
	{"central3-attack", runCentral3Attack},
	{"fuzz", runFuzz},
}

func workloadNamed(name string) func(int64) (sample, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

// churnParams is the BENCH_10 sizing: an arity-90 fat tree (10,125
// switches, 182,250 hosts) under 600k flow arrivals per sim-second.
func churnParams() netco.HybridParams {
	hp := netco.DefaultHybridParams()
	hp.Arity = 90
	hp.FlowDemand = 15e6
	hp.Duration = time.Second
	hp.Epoch = 10 * time.Millisecond
	hp.ChurnArrivals = 600_000
	hp.ChurnMeanBytes = 37_500
	hp.ChurnParetoFrac = 0.3
	hp.ChurnCrossFrac = 0.02
	return hp
}

func runChurn(seed int64) (sample, error) {
	p := netco.DefaultParams()
	p.Seed = seed
	s := sample{}
	t := startStep()
	r := netco.RunChurn(p, churnParams())
	t.stop(&s)

	s.Digest = shortDigest(r.Digest)
	s.SetupS = (r.BuildTopoMS + r.BuildWireMS) / 1e3
	s.RunS = s.StepsMS[0]/1e3 - s.SetupS
	s.CPUS = s.StepsCPUMS[0] / 1e3
	s.check("conservation", r.Departures+uint64(r.EndLive) == r.Arrivals,
		"departures %d + end-live %d = arrivals %d", r.Departures, r.EndLive, r.Arrivals)
	s.Counts = map[string]float64{
		"fluid.recycle_ratio": ratio(float64(r.Recycled), float64(r.Arrivals)),
		"fluid.settles":       float64(r.Settles),
		"fluid.components":    float64(r.ComponentsSolved),
		"wheel.expired":       float64(r.WheelExpired),
		"sim.events":          float64(r.Events),
	}
	return s, nil
}

// hybridParams is the BENCH_8 sizing: arity 90 with 6 flows per host
// (1,093,500 long-lived fluid flows) and 8 monitored flows expanded to
// packets through the Central3 combiner region.
func hybridParams() netco.HybridParams {
	hp := netco.DefaultHybridParams()
	hp.Arity = 90
	hp.FlowsPerHost = 6
	hp.FlowDemand = 15e6
	hp.CrossFlows = 8
	hp.Duration = time.Second
	hp.Epoch = 10 * time.Millisecond
	hp.SwapAt = 500 * time.Millisecond
	return hp
}

func runHybrid(seed int64) (sample, error) {
	p := netco.DefaultParams()
	p.Seed = seed
	hp := hybridParams()
	s := sample{}
	t := startStep()
	r := netco.RunHybrid(p, hp)
	t.stop(&s)

	s.Digest = shortDigest(r.Digest)
	s.SetupS = (r.BuildTopoMS + r.BuildWireMS + r.BuildFlowsMS) / 1e3
	s.RunS = s.StepsMS[0]/1e3 - s.SetupS
	s.CPUS = s.StepsCPUMS[0] / 1e3
	hosts := hp.Arity * hp.Arity * hp.Arity / 4
	s.check("flows", r.Flows == hosts*hp.FlowsPerHost,
		"%d flows registered, want %d hosts x %d", r.Flows, hosts, hp.FlowsPerHost)
	s.Counts = map[string]float64{
		"fluid.settles": float64(r.Settles),
		"sim.events":    float64(r.Events),
	}
	return s, nil
}

// The central3-attack load: 60 Mb/s of 1470 B datagrams plus 8,000 pps
// of 18 B datagrams (60 B frames), about 13,100 pps in all — 60% of the
// compare's budget of one packet per 3 copies x 15 µs.
const (
	attackSlice      = 10 * time.Millisecond
	attackSlices     = 500 // 5 simulated seconds of offered load
	attackDrain      = 5   // 50 ms after the sources stop: over twice the 20 ms hold
	attackBulkRate   = 60e6
	attackBulkBytes  = 1470
	attackSmallPPS   = 8000
	attackSmallBytes = 18
)

// setupRepeats is how many times a workload whose set-up is cheap sets
// up per sample; setup_s is the median, and the last one is measured.
const setupRepeats = 15

// attackBed is the central3-attack set-up: the testbed with its sources
// and sinks.
type attackBed struct {
	tb                  *netco.Testbed
	mod                 *netco.Modify
	bulk, small         *netco.UDPSource
	bulkSink, smallSink *netco.UDPSink
}

func newAttackBed(seed int64) *attackBed {
	p := netco.DefaultParams()
	p.Seed = seed
	// Router 0 rewrites the TOS byte of every IPv4 packet (§II attack 3):
	// its copy never matches, so every release rests on the two honest
	// copies and every forged copy is held until it expires.
	b := &attackBed{mod: &netco.Modify{
		Match:   netco.MatchAll().WithDlType(0x0800),
		Rewrite: []netco.Action{netco.SetNwTOS(0xfc)},
	}}
	b.tb = netco.BuildTestbed(p.TestbedParams(netco.Central3, func(i int) netco.Behavior {
		if i == 0 {
			return b.mod
		}
		return nil
	}))
	rng := netco.NewRNG(seed)
	b.bulkSink = netco.NewUDPSink(b.tb.H2, 5001)
	b.smallSink = netco.NewUDPSink(b.tb.H2, 5002)
	b.bulk = netco.NewUDPSource(b.tb.H1, 4001, b.tb.H2.Endpoint(5001), netco.UDPSourceConfig{
		Rate: attackBulkRate, PayloadSize: attackBulkBytes, Jitter: 100 * time.Microsecond, Rng: rng,
	})
	b.small = netco.NewUDPSource(b.tb.H1, 4002, b.tb.H2.Endpoint(5002), netco.UDPSourceConfig{
		Rate: attackSmallPPS * attackSmallBytes * 8, PayloadSize: attackSmallBytes, Jitter: 100 * time.Microsecond, Rng: rng,
	})
	return b
}

func runCentral3Attack(seed int64) (sample, error) {
	var setups []float64
	var b *attackBed
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.tb.Close()
		}
		start := time.Now()
		b = newAttackBed(seed)
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.tb.Close()
	s := sample{SetupS: median(setups)}

	loop := startStep()
	b.bulk.Start()
	b.small.Start()
	for i := 0; i < attackSlices+attackDrain; i++ {
		if i == attackSlices {
			b.bulk.Stop()
			b.small.Stop()
		}
		t := startStep()
		b.tb.Runner.RunFor(attackSlice)
		t.stop(&s)
	}
	s.RunS = time.Since(loop.wall).Seconds()
	s.CPUS = (processCPU() - loop.cpu).Seconds()

	offered := b.bulk.Sent + b.small.Sent
	eng := b.tb.Combiner.Compare.EngineStats()
	for _, f := range []struct {
		name string
		src  *netco.UDPSource
		sink *netco.UDPSink
	}{{"bulk", b.bulk, b.bulkSink}, {"small", b.small, b.smallSink}} {
		st := f.sink.Stats()
		s.check(f.name+".delivered", st.Unique == f.src.Sent, "%d of %d datagrams delivered", st.Unique, f.src.Sent)
		s.check(f.name+".duplicates", st.Duplicates == 0, "%d duplicates at the sink", st.Duplicates)
		s.check(f.name+".corrupted", st.Corrupted == 0, "%d corrupted at the sink", st.Corrupted)
	}
	s.check("released", eng.Released == offered, "compare released %d, offered %d", eng.Released, offered)

	var lookups, hits uint64
	for _, r := range b.tb.Routers {
		st := r.Table().Stats()
		lookups += st.Lookups
		hits += st.MicroflowHits
	}
	var queueDrops uint64
	for _, l := range b.tb.Net.Links() {
		queueDrops += l.Stats(0).Drops + l.Stats(1).Drops
	}
	events := b.tb.Sched.Executed()
	s.Counts = map[string]float64{
		"sim.events":           float64(events),
		"core.ingested":        float64(eng.Ingested),
		"core.released":        float64(eng.Released),
		"core.suppressed":      float64(eng.Suppressed),
		"core.cleanup_scanned": float64(eng.CleanupScanned),
		"openflow.lookups":     float64(lookups),
		"openflow.hit_rate":    ratio(float64(hits), float64(lookups)),
		"adversary.modified":   float64(b.mod.Modified),
		"netem.queue_drops":    float64(queueDrops),
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %+v %+v %+v %d %d %d", b.bulk.Sent, b.small.Sent, b.bulkSink.Stats(), b.smallSink.Stats(),
		eng, lookups, b.mod.Modified, events)
	s.Digest = fmt.Sprintf("%016x", h.Sum64())
	return s, nil
}

// fuzzBatch is how many scenarios one fuzz sample checks.
const fuzzBatch = 60

// fuzzGenomeSeed fixes the batch's genomes — topologies, flows,
// adversaries, fault plans, impairment pipelines — so that every seed
// asks for the same work: genomes drawn afresh per seed made the batch
// cost swing by ±25%, far above the benchmark's bounds. The workload
// seed re-seeds each scenario's runtime randomness (probabilistic drops,
// impairment draws, traffic jitter) instead.
const fuzzGenomeSeed = 1

// fuzzScenarios generates the batch, cycling the plain, chaos and
// impairment genomes.
func fuzzScenarios(seed int64) []harness.Scenario {
	genomes := netco.NewRNG(fuzzGenomeSeed)
	seeds := netco.NewRNG(seed)
	opts := []harness.Options{{}, {Chaos: true}, {Impair: true}}
	scs := make([]harness.Scenario, fuzzBatch)
	for i := range scs {
		scs[i] = harness.Generate(genomes, opts[i%len(opts)])
		scs[i].Seed = int64(seeds.Uint64() >> 1)
	}
	return scs
}

func runFuzz(seed int64) (sample, error) {
	var setups []float64
	var scs []harness.Scenario
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		scs = fuzzScenarios(seed)
		setups = append(setups, time.Since(start).Seconds())
	}
	s := sample{SetupS: median(setups)}

	h := fnv.New64a()
	violations := 0
	loop := startStep()
	for i, sc := range scs {
		t := startStep()
		res, err := harness.Check(sc)
		t.stop(&s)
		if err != nil {
			s.check(fmt.Sprintf("scenario.%d", i), false, "seed %d: execution error: %v", sc.Seed, err)
			continue
		}
		if len(res.Violations) > 0 {
			violations++
		}
		s.check(fmt.Sprintf("scenario.%d", i), len(res.Violations) == 0,
			"seed %d topo %s k=%d: oracles violated %v", sc.Seed, sc.Topology, sc.K, res.Oracles())
		h.Write(res.Obs.CanonicalJSON())
	}
	s.RunS = time.Since(loop.wall).Seconds()
	s.CPUS = (processCPU() - loop.cpu).Seconds()
	s.Digest = fmt.Sprintf("%016x", h.Sum64())
	s.Counts = map[string]float64{
		"harness.scenarios":  float64(len(scs)),
		"harness.violations": float64(violations),
	}
	return s, nil
}

// runParRatio times the partitioned engine against the serial one on
// the fuzz batch: ExecuteP(sc, 4) ÷ ExecuteP(sc, 1) wall time, the two
// alternating which goes first so warm caches favour neither.
func runParRatio(seed int64) (sample, error) {
	var serial, par time.Duration
	for i, sc := range fuzzScenarios(seed) {
		order := []int{1, 4}
		if i%2 == 1 {
			order = []int{4, 1}
		}
		for _, parts := range order {
			t := time.Now()
			if _, err := harness.ExecuteP(sc, parts); err != nil {
				return sample{}, fmt.Errorf("ExecuteP(seed %d, %d): %w", sc.Seed, parts, err)
			}
			if parts == 1 {
				serial += time.Since(t)
			} else {
				par += time.Since(t)
			}
		}
	}
	return sample{
		RunS:   (serial + par).Seconds(),
		Counts: map[string]float64{"par.exec_ratio": ratio(par.Seconds(), serial.Seconds())},
	}, nil
}

// shortDigest folds an engine's determinism witness to 64 bits for the
// report.
func shortDigest(witness string) string {
	h := fnv.New64a()
	h.Write([]byte(witness))
	return fmt.Sprintf("%016x", h.Sum64())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
