package cost_test

import (
	"testing"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// TestEvaluateSteadyStateAllocs pins the pricing hot path's
// allocation budget. After the first evaluation warms the interned
// topology's derived caches (placement, orchestrations, compiled
// lowering templates and, for the TEMP engine, the TCME memo) and the
// pooled pricing scratch, Evaluate — a batch of one on that scratch —
// allocates nothing for every engine, the TEMP engine's two placement
// families included. Any return of per-evaluation map/route churn,
// which cost thousands, or of a heap-allocated evaluator fails it.
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	cfg := parallel.Config{DP: 2, TP: 2, SP: 2, TATP: 4}
	for _, tc := range []struct {
		name   string
		engine cost.Engine
		budget float64
	}{
		{"GMap", cost.GMap, 0},
		{"SMap", cost.SMap, 0},
		{"TEMP (TCME)", cost.TCMEEngine, 0},
	} {
		o := cost.TEMPOptions()
		o.Engine = tc.engine
		if _, err := cost.Evaluate(m, w, cfg, o); err != nil {
			t.Fatalf("%s warmup: %v", tc.name, err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := cost.Evaluate(m, w, cfg, o); err != nil {
				t.Fatal(err)
			}
		})
		if avg > tc.budget {
			t.Errorf("%s steady-state Evaluate allocates %.1f objects/op, budget %.0f", tc.name, avg, tc.budget)
		}
	}
}
