package sim

import (
	"reflect"
	"testing"
)

// TestRunScenarioSpecsOnMatchesDirect: a scenario batch routed through
// the fabric task codec (JSON spec in, gob wire out) on the in-process
// path reproduces RunScenarioSpecsWithStages bit-for-bit, with and
// without CLI overrides: a solver stage with a budget, and a cost
// backend.
func TestRunScenarioSpecsOnMatchesDirect(t *testing.T) {
	specs := batchSpecs(t)
	for _, ov := range []Overrides{
		{},
		{Strategy: "ga", Budget: "300", Seed: 11},
		{Backend: "replay"},
	} {
		sol, cst, err := ov.Stages()
		if err != nil {
			t.Fatal(err)
		}
		direct := RunScenarioSpecsWithStages(specs, sol, cst)
		dist := RunScenarioSpecsOn(nil, specs, ov)
		if len(dist) != len(direct) {
			t.Fatalf("%+v: result count %d, want %d", ov, len(dist), len(direct))
		}
		for i := range direct {
			if direct[i].Err != nil || dist[i].Err != nil {
				t.Fatalf("%+v: scenario %s errored: direct %v, distributed %v",
					ov, specs[i].Name, direct[i].Err, dist[i].Err)
			}
			if (direct[i].Solver != nil) != (sol != nil) {
				t.Fatalf("%+v: scenario %s solver stage %+v", ov, specs[i].Name, direct[i].Solver)
			}
			// The search's wall-clock time is the one field that differs.
			for _, r := range []ScenarioResult{direct[i], dist[i]} {
				if r.Solver != nil {
					r.Solver.Elapsed = 0
				}
			}
			if !reflect.DeepEqual(direct[i], dist[i]) {
				t.Errorf("%+v: scenario %s differs through the task codec:\n got %+v\nwant %+v",
					ov, specs[i].Name, dist[i], direct[i])
			}
		}
	}
}

// TestOverridesStages: empty overrides build no stages; a backend
// override builds only the cost stage.
func TestOverridesStages(t *testing.T) {
	sol, cst, err := Overrides{}.Stages()
	if err != nil || sol != nil || cst != nil {
		t.Fatalf("empty overrides: %v %v %v", sol, cst, err)
	}
	sol, cst, err = Overrides{Backend: "analytic"}.Stages()
	if err != nil || sol != nil || cst == nil {
		t.Fatalf("backend override: %v %v %v", sol, cst, err)
	}
	if _, _, err := (Overrides{Strategy: "no-such-strategy"}).Stages(); err == nil {
		t.Fatal("bogus strategy should not build")
	}
}
