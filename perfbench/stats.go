package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two nearest order statistics (the
// definition numpy and R use by default). It returns NaN for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// failFrac is the share of output checks that did not hold.
func failFrac(checks []check) (attempted, failed int, frac float64) {
	for _, c := range checks {
		attempted++
		if !c.OK {
			failed++
		}
	}
	return attempted, failed, ratio(float64(failed), float64(attempted))
}

// digestChecks requires every sample of a set — same workload, same
// seed — to report the digest of the first.
func digestChecks(samples []sample) []check {
	var out []check
	for i := 1; i < len(samples); i++ {
		out = append(out, check{
			Name:   "digest.stable",
			OK:     samples[i].Digest == samples[0].Digest,
			Detail: fmt.Sprintf("run %d digest %s, run 0 %s", i, samples[i].Digest, samples[0].Digest),
		})
	}
	return out
}
