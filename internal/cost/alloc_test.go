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
// lowering templates and, for the TEMP engine, the TCME memo), a
// GMap/SMap evaluation runs in a handful of allocations (currently 4:
// the evaluator itself and a few template sequence headers) and a
// TEMP one in twice that, one set per placement family — the
// regression guard leaves headroom but catches any return of the
// per-evaluation map/route churn, which cost thousands.
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
		{"GMap", cost.GMap, 32},
		{"SMap", cost.SMap, 32},
		{"TEMP (TCME)", cost.TCMEEngine, 32},
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
