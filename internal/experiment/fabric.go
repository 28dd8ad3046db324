package experiment

import (
	"fmt"
	"time"

	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// fluidFabric is the fat-tree fabric shared by the hybrid and churn
// engines: the switches, the hosts hanging off the edge layer, and the
// deterministic two-level routing that turns a (src, dst) host pair
// into a fluid path or a node-name route. Both engines build it the
// same way so their link creation order — and therefore same-instant
// event tie-breaking — is identical for identical sizing.
type fluidFabric struct {
	arity, half, perPod int

	ft    *topo.FatTree
	hosts []*traffic.Host

	// hostUp[g] and hostDown[g] are host g's access hops, resolved once
	// at build: host→edge (the host's transmit end) and edge→host.
	// pathFor reads them instead of chasing the host's port table on
	// every arrival.
	hostUp, hostDown []traffic.Hop

	// Build-time breakdown (wall clock): switches + trunk links, then
	// host builds + host links. Provenance only.
	topoMS, wireMS float64
}

// buildFluidFabric constructs the fat tree and its hosts, then wires
// each host to its edge switch in host order, so link creation order —
// and with it link ids and same-instant tie-break bands — is a function
// of the sizing alone.
func buildFluidFabric(sched *sim.Scheduler, nw *netem.Network, p Params, arity int) *fluidFabric {
	half := arity / 2
	perPod := half * half
	topoStart := time.Now()
	ft := topo.BuildFatTree(nw, topo.FatTreeParams{
		Arity:           arity,
		Link:            p.TrunkLink(),
		SwitchProcDelay: p.SwitchProc,
		SwitchProcQueue: p.SwitchQueue,
	})
	topoMS := float64(time.Since(topoStart)) / float64(time.Millisecond)

	wireStart := time.Now()
	hosts := make([]*traffic.Host, arity*perPod)
	hcfg := hostCfgOf(p)
	for g := range hosts {
		name := fmt.Sprintf("pod%d-h%d", g/perPod, g%perPod)
		hosts[g] = traffic.NewHost(sched, name, packet.HostMAC(uint32(1+g)), packet.HostIP(uint32(1+g)), hcfg)
	}
	// Register only once all hosts are built: interleaving NewHost with
	// the node-map inserts made this phase ~15% slower at arity 90.
	for _, h := range hosts {
		nw.Add(h)
	}
	hostUp := make([]traffic.Hop, len(hosts))
	hostDown := make([]traffic.Hop, len(hosts))
	for g, h := range hosts {
		pod, local := g/perPod, g%perPod
		// Connect binds its first node at end 0: the host transmits
		// from end 0, the edge switch from end 1.
		l := nw.Connect(h, traffic.HostPort, ft.Pods[pod].Edge[local/half], ft.EdgeHostPortOf(local%half), p.HostLink())
		hostUp[g] = traffic.Hop{Link: l, End: 0}
		hostDown[g] = traffic.Hop{Link: l, End: 1}
	}
	wireMS := float64(time.Since(wireStart)) / float64(time.Millisecond)

	return &fluidFabric{
		arity: arity, half: half, perPod: perPod,
		ft: ft, hosts: hosts,
		hostUp: hostUp, hostDown: hostDown,
		topoMS: topoMS, wireMS: wireMS,
	}
}

// switches counts the fabric switches (cores + per-pod agg and edge).
func (fb *fluidFabric) switches() int {
	return fb.half*fb.half + fb.arity*fb.arity
}

// hopOf resolves a transmitting (node, port) to a fluid Hop.
func (fb *fluidFabric) hopOf(n netem.Node, port int) traffic.Hop {
	l, end := n.Ports().Ref(port)
	return traffic.Hop{Link: l, End: end}
}

// pathFor appends the directed fluid path srcG→dstG to hops (a reused
// scratch buffer — NewFlow copies what it needs) along the
// deterministic fat-tree routing (agg by destination slot, core by
// destination pod — the same choice installFatTreeRoutes materialises
// as flow entries).
func (fb *fluidFabric) pathFor(srcG, dstG int, hops []traffic.Hop) []traffic.Hop {
	half, perPod, ft := fb.half, fb.perPod, fb.ft
	sp, sl := srcG/perPod, srcG%perPod
	dp, dl := dstG/perPod, dstG%perPod
	se := sl / half
	de, ds := dl/half, dl%half
	jd, md := ds%half, dp%half

	hops = append(hops, fb.hostUp[srcG])
	if sp == dp && se == de {
		return append(hops, fb.hostDown[dstG])
	}
	hops = append(hops, fb.hopOf(ft.Pods[sp].Edge[se], ft.EdgeUpPortOf(jd)))
	if sp != dp {
		cw := ft.Cores[jd*half+md]
		hops = append(hops,
			fb.hopOf(ft.Pods[sp].Agg[jd], ft.AggUpPortOf(md)),
			fb.hopOf(cw, ft.CorePodPortOf(dp)))
	}
	return append(hops, fb.hopOf(ft.Pods[dp].Agg[jd], ft.AggDownPortOf(de)), fb.hostDown[dstG])
}

// routeFor builds the node-name route srcG→dstG. Only monitored flows
// need one: the combiner region shares no links with the fabric, so a
// fabric-only route can never cross it, and at million-flow scale the
// name slices would dominate the build.
func (fb *fluidFabric) routeFor(srcG, dstG int) []string {
	half, perPod, ft, hosts := fb.half, fb.perPod, fb.ft, fb.hosts
	sp, sl := srcG/perPod, srcG%perPod
	dp, dl := dstG/perPod, dstG%perPod
	se := sl / half
	de, ds := dl/half, dl%half
	jd, md := ds%half, dp%half

	route := []string{hosts[srcG].Name(), ft.Pods[sp].Edge[se].Name()}
	if sp == dp && se == de {
		return append(route, hosts[dstG].Name())
	}
	route = append(route, ft.Pods[sp].Agg[jd].Name())
	if sp != dp {
		cw := ft.Cores[jd*half+md]
		route = append(route, cw.Name(), ft.Pods[dp].Agg[jd].Name())
	}
	return append(route, ft.Pods[dp].Edge[de].Name(), hosts[dstG].Name())
}
