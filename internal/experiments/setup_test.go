package experiments

import (
	"testing"

	"raha/internal/failures"
	"raha/internal/metaopt"
	"raha/internal/milp"
)

// TestWarmChainKeepsLastScenario: a warm-start chain seeds each question
// from its key's last answer that carried a scenario. An answer stopped
// before any incumbent (no scenario) must not replace it — metaopt ignores
// a warm start without a scenario, so the next, looser question would
// start cold — and a key with no such answer yet seeds nothing.
func TestWarmChainKeepsLastScenario(t *testing.T) {
	found := &metaopt.Result{Status: milp.Feasible, Scenario: &failures.Scenario{}, Degradation: 1}
	none := &metaopt.Result{Status: milp.Unknown}
	warm := warmChain{}
	warm.keep(1, found)
	warm.keep(1, none)
	warm.keep(2, none)
	if q := (question{k: 1, warm: warm[1]}); q.warm != found {
		t.Fatalf("k=1 seeds from %+v, want the earlier answer with a scenario", q.warm)
	}
	if warm[2] != nil {
		t.Fatalf("k=2 seeds from %+v, want a cold start", warm[2])
	}
}
