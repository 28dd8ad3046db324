package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// Partition assignment for the parallel engine (internal/sim/par), on
// which the fuzzing harness's determinism oracle re-executes scenarios.
//
// Every scheme follows one rule: nodes that share mutable state through
// direct method calls — a combiner's edges, routers and compare (the
// compare blocks edge ports synchronously), or a virtual edge and its
// embedded engine — form one *unit* and must land in the same domain.
// Units only ever talk to other units through netem links, whose
// propagation delay is the lookahead bound. Units are folded onto the
// requested domain count round-robin, so any domain count from 1 to the
// unit count is valid and produces the same simulation (bit-identical —
// see the par package doc).

// FatTreeAssign partitions a k-ary fat tree: pod p is unit p, core c is
// unit k + c/(k/2) (one unit per core group), so there are k + k/2
// units. Any extra node must embed its pod in its name ("pod3-h0");
// unknown names panic rather than silently serialise.
func FatTreeAssign(arity, domains int) func(name string) int {
	half := arity / 2
	return func(name string) int {
		var u int
		switch {
		case strings.HasPrefix(name, "pod"):
			rest := name[len("pod"):]
			end := 0
			for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
				end++
			}
			n, err := strconv.Atoi(rest[:end])
			if err != nil {
				panic(fmt.Sprintf("topo: cannot parse pod index in node name %q", name))
			}
			u = n
		case strings.HasPrefix(name, "core"):
			c, err := strconv.Atoi(name[len("core"):])
			if err != nil {
				panic(fmt.Sprintf("topo: cannot parse core index in node name %q", name))
			}
			u = arity + c/half
		default:
			panic(fmt.Sprintf("topo: node %q has no fat-tree partition (name it pod<p>-...)", name))
		}
		return u % domains
	}
}
