package harness

import (
	"bytes"
	"fmt"
)

// CheckResult is the full verdict on one scenario.
type CheckResult struct {
	Scenario   Scenario    `json:"scenario"`
	Violations []Violation `json:"violations"`
	// Obs is the adversarial run's observation (nil if the scenario was
	// invalid).
	Obs *Observation `json:"obs,omitempty"`
}

// Oracles returns the sorted, de-duplicated set of violated oracle names.
func (r CheckResult) Oracles() []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range r.Violations {
		if !seen[v.Oracle] {
			seen[v.Oracle] = true
			out = append(out, v.Oracle)
		}
	}
	sortStrings(out)
	return out
}

// Check executes the scenario and applies all four oracles:
//
//   - no-forgery and detection are decided inside Execute;
//   - determinism re-executes the identical scenario twice more — once
//     serial, once on the partitioned parallel engine (4 domains) — and
//     requires byte-identical canonical observations from both;
//   - masking (k=3 only) executes the honest twin — same scenario,
//     adversaries stripped — and requires each direction's released
//     frame multiset to match. The twin comparison is on IP-ID-
//     normalised multisets, not release sequences: honest frame
//     *content* must be preserved bit-exactly, while cross-flow release
//     interleaving (and hence per-host IP-ID assignment) may shift with
//     adversarial timing, which the combiner does not claim to prevent.
//
// Masking is skipped when WeakenMajority is set — the hook deliberately
// breaks the release rule, and the interesting verdict there is
// no-forgery catching the forged releases. It is likewise skipped for
// chaos scenarios: outage windows drop honest traffic, and adversarial
// timing shifts *which* packets are in flight when a window opens, so the
// adversarial egress need not equal the honest twin's. Under churn the
// enforced claims are no-forgery, recovery (decided inside Execute) and
// determinism. Impaired scenarios skip masking for the same reason an
// outage does: wire loss hits the adversarial run and the honest twin at
// different packets (adversarial timing shifts what is on the wire when
// a loss draw fires), so equality of egress multisets is not a claim the
// combiner makes. No-forgery and determinism stay fully armed under
// noise — the no-forgery ledger credits a majority of identically
// wire-corrupted copies to the wire, not to a router (see
// ImpairConfig.CorruptPct), and the impairment PRNGs are seeded from the
// genome alone.
func Check(sc Scenario) (CheckResult, error) {
	res := CheckResult{Scenario: sc}
	r1, err := Execute(sc)
	if err != nil {
		return res, err
	}
	res.Obs = &r1.Obs
	res.Violations = append(res.Violations, r1.Violations...)

	r2, err := Execute(sc)
	if err != nil {
		return res, err
	}
	if !bytes.Equal(r1.Obs.CanonicalJSON(), r2.Obs.CanonicalJSON()) {
		res.Violations = append(res.Violations, Violation{
			Oracle: OracleDeterminism,
			Detail: "identical scenario produced different observations across executions",
		})
	}

	rp, err := ExecuteP(sc, 4)
	if err != nil {
		return res, err
	}
	if !bytes.Equal(r1.Obs.CanonicalJSON(), rp.Obs.CanonicalJSON()) {
		res.Violations = append(res.Violations, Violation{
			Oracle: OracleDeterminism,
			Detail: "parallel engine (4 partitions) diverged from serial execution",
		})
	}

	if sc.K == 3 && !sc.WeakenMajority && len(sc.Chaos) == 0 && !sc.Impaired() {
		honest := sc
		honest.Adversaries = nil
		rh, err := Execute(honest)
		if err != nil {
			return res, err
		}
		res.Violations = append(res.Violations, compareMasking(r1.Obs, rh.Obs)...)
	}
	return res, nil
}

// compareMasking checks Theorem 1: the adversarial run's egress must be
// content-identical to the honest twin's, direction by direction.
func compareMasking(adv, honest Observation) []Violation {
	var out []Violation
	if len(adv.Released) != len(honest.Released) {
		return []Violation{{Oracle: OracleMasking, Detail: "direction count differs from honest twin"}}
	}
	honestTotal := 0
	for i := range adv.Released {
		a, h := adv.Released[i], honest.Released[i]
		honestTotal += h.Count
		if a.Count != h.Count || a.SetDigest != h.SetDigest {
			out = append(out, Violation{
				Oracle: OracleMasking,
				Detail: fmt.Sprintf("combiner %d edge %d egress differs from honest twin (%d vs %d frames)",
					a.Combiner, a.Edge, a.Count, h.Count),
			})
		}
	}
	// Vacuity guard: a scenario with traffic whose honest twin releases
	// nothing would render the comparison trivially true — that is a
	// harness wiring bug, not a masked attack.
	if honestTotal == 0 && len(honest.Flows) > 0 {
		out = append(out, Violation{
			Oracle: OracleMasking,
			Detail: "vacuous: honest twin released no frames despite traffic",
		})
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
