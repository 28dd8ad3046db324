package experiment

import (
	"testing"

	"netco/internal/netem"
	"netco/internal/sim"
	"netco/internal/traffic"
)

// refPathFor is pathFor with every hop, the host access hops included,
// resolved through the nodes' port tables — the construction the
// precomputed hostUp/hostDown tables replace.
func refPathFor(fb *fluidFabric, srcG, dstG int) []traffic.Hop {
	half, perPod, ft := fb.half, fb.perPod, fb.ft
	sp, sl := srcG/perPod, srcG%perPod
	dp, dl := dstG/perPod, dstG%perPod
	se := sl / half
	de, ds := dl/half, dl%half
	jd, md := ds%half, dp%half

	hops := []traffic.Hop{fb.hopOf(fb.hosts[srcG], traffic.HostPort)}
	if sp != dp || se != de {
		hops = append(hops, fb.hopOf(ft.Pods[sp].Edge[se], ft.EdgeUpPortOf(jd)))
		if sp != dp {
			hops = append(hops,
				fb.hopOf(ft.Pods[sp].Agg[jd], ft.AggUpPortOf(md)),
				fb.hopOf(ft.Cores[jd*half+md], ft.CorePodPortOf(dp)))
		}
		hops = append(hops, fb.hopOf(ft.Pods[dp].Agg[jd], ft.AggDownPortOf(de)))
	}
	return append(hops, fb.hopOf(ft.Pods[dp].Edge[de], ft.EdgeHostPortOf(ds)))
}

// TestFabricPathsMatchPortTables pins the precomputed host hops: for
// every (src, dst) host pair, pathFor must return exactly the hops the
// port tables give, so the fluid paths — and every digest built on
// them — are the same as before the tables existed.
func TestFabricPathsMatchPortTables(t *testing.T) {
	for _, arity := range []int{4, 6} {
		sched := sim.NewScheduler()
		fb := buildFluidFabric(sched, netem.New(sched), DefaultParams().Quick(), arity)
		var buf []traffic.Hop
		for src := range fb.hosts {
			for dst := range fb.hosts {
				if src == dst {
					continue
				}
				buf = fb.pathFor(src, dst, buf[:0])
				want := refPathFor(fb, src, dst)
				if len(buf) != len(want) {
					t.Fatalf("arity %d %d→%d: %d hops, want %d", arity, src, dst, len(buf), len(want))
				}
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("arity %d %d→%d hop %d: %+v, want %+v", arity, src, dst, i, buf[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkFluidNewFlow pins the fluid tier's per-arrival cost on its
// own: registering a flow over a prebuilt arity-16 fabric path (the
// per-hop direction lookups) and handing it straight back to the free
// list. The path set mixes pod-local and cross-pod pairs like the
// churn workload; once every direction exists, an iteration allocates
// nothing.
func BenchmarkFluidNewFlow(b *testing.B) {
	sched := sim.NewScheduler()
	fb := buildFluidFabric(sched, netem.New(sched), DefaultParams().Quick(), 16)
	rng := sim.NewRNG(1)
	paths := make([][]traffic.Hop, 4096)
	for i := range paths {
		src := rng.Intn(len(fb.hosts))
		dst := (src + 1 + rng.Intn(len(fb.hosts)-1)) % len(fb.hosts)
		if i%8 != 0 { // mostly pod-local
			dst = src/fb.perPod*fb.perPod + (src%fb.perPod+1+rng.Intn(fb.perPod-1))%fb.perPod
		}
		paths[i] = fb.pathFor(src, dst, nil)
	}
	fn := traffic.NewFluidNet(sched, traffic.FluidConfig{})
	for _, p := range paths {
		fn.NewFlow(15e6, p).Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn.NewFlow(15e6, paths[i%len(paths)]).Release()
	}
}
