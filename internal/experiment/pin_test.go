package experiment

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// Pinned determinism witnesses. Unlike the run-twice digest tests, these
// compare against constants, so they catch any change to the simulated
// behaviour across commits: link creation order (and with it link ids
// and same-instant tie-break bands), build-order-dependent state, or a
// changed default. A deliberate behaviour change re-records them; a
// refactor that claims to be behaviour-neutral must leave them alone.
const (
	pinHybridDigest = "adbf9c2878149421"
	pinChurnDigest  = "6e439eee32f398a9"
	pinPingArtifact = `{"kind":"ping","scenario":"Central3","seed":1,"metrics":{"ping_received":20,"ping_sent":20,"rtt_avg_ms":0.310272,"rtt_max_ms":0.310272,"rtt_min_ms":0.310272},"summaries":{"rtt_avg_ms":{"n":1,"mean":0.310272,"m2":0,"min":0.310272,"max":0.310272}}}`
)

// fold64 shortens a long witness to a reviewable constant.
func fold64(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestPinnedHybridDigest(t *testing.T) {
	r := RunHybrid(DefaultParams(), DefaultHybridParams())
	if got := fold64(r.Digest); got != pinHybridDigest {
		t.Errorf("hybrid digest moved: got %s, pinned %s\nwitness: %s", got, pinHybridDigest, r.Digest)
	}
}

func TestPinnedChurnDigest(t *testing.T) {
	p := DefaultParams()
	hp := DefaultHybridParams()
	hp.Arity = 10
	hp.Duration = 250 * time.Millisecond
	hp.ChurnArrivals = 40_000
	r := RunChurn(p, hp)
	if got := fold64(r.Digest); got != pinChurnDigest {
		t.Errorf("churn digest moved: got %s, pinned %s\nwitness: %s", got, pinChurnDigest, r.Digest)
	}
}

func TestPinnedPingArtifact(t *testing.T) {
	b, err := json.Marshal(Run(KindPing, DefaultParams().Quick(), ScenCentral3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); got != pinPingArtifact {
		t.Errorf("ping artifact moved:\n got: %s\npinned: %s", got, pinPingArtifact)
	}
}
