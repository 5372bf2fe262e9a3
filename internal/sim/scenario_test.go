package sim

import (
	"reflect"
	"testing"

	"temp/internal/engine"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/solver"
	"temp/internal/spec"
)

// batchSpecs builds a mixed scenario batch: registry-named sweep,
// fully-inline off-paper wafer+model, explicit pinned configuration,
// multi-wafer, and fault injection.
func batchSpecs(t *testing.T) []spec.ScenarioSpec {
	t.Helper()
	raw := []string{
		`{"name":"paper-sweep","model":"gpt3-6.7b","wafer":"wsc-4x8","system":"MeSP+GMap"}`,
		`{"name":"off-paper","model":{"name":"TinyNet","heads":16,"hidden":2048,"layers":12,"batch":64},
		  "wafer":{"name":"wsc-2x8","rows":2,"cols":8,"die":{"hbm_bytes":48e9}},
		  "system":{"scheme":"temp","envelope":{"max_tatp":8}}}`,
		`{"name":"pinned","model":"llama2-7b","wafer":"wsc-4x8","config":{"dp":4,"tatp":8}}`,
		`{"name":"multi-wafer","model":"gpt3-175b","wafer":"wsc-4x8","system":"TEMP","wafers":2}`,
		`{"name":"faulted","model":"gpt3-6.7b","wafer":"wsc-4x8","config":{"dp":4,"tatp":8},
		  "fault":{"link_rate":0.1,"trials":4,"seed":7}}`,
	}
	out := make([]spec.ScenarioSpec, len(raw))
	for i, r := range raw {
		s, err := spec.ParseScenario([]byte(r))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestRunScenariosDeterministic: the same batch evaluated serially and
// with a parallel worker pool yields identical results in input order.
func TestRunScenariosDeterministic(t *testing.T) {
	specs := batchSpecs(t)
	prev := engine.Workers()
	defer engine.SetWorkers(prev)

	engine.SetWorkers(1)
	serial := RunScenarioSpecs(specs)
	engine.SetWorkers(8)
	parallel8 := RunScenarioSpecs(specs)

	if len(serial) != len(specs) || len(parallel8) != len(specs) {
		t.Fatalf("result count: serial %d, parallel %d, want %d", len(serial), len(parallel8), len(specs))
	}
	for i := range serial {
		if serial[i].Err != nil {
			t.Fatalf("scenario %s failed: %v", specs[i].Name, serial[i].Err)
		}
		if serial[i].Name != specs[i].Name {
			t.Errorf("result %d out of input order: %s vs %s", i, serial[i].Name, specs[i].Name)
		}
		if !reflect.DeepEqual(serial[i], parallel8[i]) {
			t.Errorf("scenario %s differs between -workers 1 and -workers 8:\n  %+v\n  %+v",
				specs[i].Name, serial[i], parallel8[i])
		}
	}
}

// TestOffPaperScenarioEndToEnd: a wafer grid, model shape and system
// not present in the paper runs end-to-end and produces a cost
// breakdown (the scenario-layer acceptance path).
func TestOffPaperScenarioEndToEnd(t *testing.T) {
	ss, err := spec.ParseScenario([]byte(`{
		"name": "novel",
		"model": {"name":"MidNet 13B","heads":40,"hidden":5120,"layers":40,"batch":64,"seq":4096},
		"wafer": {"name":"wsc-8x8-fat","rows":8,"cols":8,
			"die":{"hbm_bytes":96e9,"peak_flops":2.0e15},
			"link":{"bandwidth":5e12}},
		"system": {"scheme":"fsdp","engine":"gmap"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ss.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.StepTime <= 0 || r.Memory.Total() <= 0 {
		t.Fatalf("degenerate breakdown: step %v, mem %v", r.StepTime, r.Memory.Total())
	}
	if !r.Feasible {
		t.Error("13B-class model should fit an 8x8 wafer with 96GB HBM dies under FSDP")
	}
	if r.System != "FSDP+GMap" {
		t.Errorf("system = %s, want FSDP+GMap", r.System)
	}
}

// TestScenarioFaultStage: the fault stage reports a normalized
// throughput in (0, 1]; a zero-rate injection is skipped.
func TestScenarioFaultStage(t *testing.T) {
	ss, err := spec.ParseScenario([]byte(`{
		"name":"f","model":"gpt3-6.7b","wafer":"wsc-4x8",
		"config":{"dp":4,"tatp":8},
		"fault":{"core_rate":0.05,"cores_per_die":64,"trials":4,"seed":11}}`))
	if err != nil {
		t.Fatal(err)
	}
	rs := RunScenarioSpecs([]spec.ScenarioSpec{ss})
	if rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
	if !rs[0].Faulted {
		t.Fatal("fault stage did not run")
	}
	if rs[0].FaultNormTput <= 0 || rs[0].FaultNormTput > 1.0001 {
		t.Errorf("normalized throughput = %v, want (0,1]", rs[0].FaultNormTput)
	}
}

// TestScenarioSolverStage runs a scenario whose spec declares a
// solver stage: the outcome must carry the strategy's search result,
// deterministically across worker counts (modulo wall-clock).
func TestScenarioSolverStage(t *testing.T) {
	raw := `{"name":"solved","model":"gpt3-6.7b","wafer":"wsc-4x8",
	  "solver":{"strategy":"portfolio","seed":7,"budget":{"checkpoint":10}}}`
	ss, err := spec.ParseScenario([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	prev := engine.Workers()
	defer engine.SetWorkers(prev)

	engine.SetWorkers(1)
	serial := RunScenarioSpecs([]spec.ScenarioSpec{ss})[0]
	engine.SetWorkers(8)
	parallel8 := RunScenarioSpecs([]spec.ScenarioSpec{ss})[0]

	for _, r := range []ScenarioResult{serial, parallel8} {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Solver == nil {
			t.Fatal("no solver outcome")
		}
		if r.Solver.Strategy != "portfolio" || r.Solver.Winner == "" {
			t.Errorf("outcome strategy %q winner %q", r.Solver.Strategy, r.Solver.Winner)
		}
		if r.Solver.FinalCost <= 0 || r.Solver.FinalCost > r.Solver.DPCost*(1+1e-9) {
			t.Errorf("degenerate solver costs: dp %v final %v", r.Solver.DPCost, r.Solver.FinalCost)
		}
		if len(r.Solver.Assignment) == 0 || r.Solver.Share <= 0 {
			t.Errorf("missing assignment/dominant share: %+v", r.Solver)
		}
	}
	if serial.Solver.FinalCost != parallel8.Solver.FinalCost ||
		serial.Solver.Winner != parallel8.Solver.Winner ||
		!reflect.DeepEqual(serial.Solver.Assignment, parallel8.Solver.Assignment) {
		t.Errorf("solver stage differs across worker counts:\n  %+v\n  %+v",
			serial.Solver, parallel8.Solver)
	}

	// The override hook replaces the declared stage.
	stage, err := (&spec.SolverSpec{Strategy: "dp"}).Build()
	if err != nil {
		t.Fatal(err)
	}
	over := RunScenarioSpecsWithStages([]spec.ScenarioSpec{ss}, stage, nil)[0]
	if over.Err != nil {
		t.Fatal(over.Err)
	}
	if over.Solver == nil || over.Solver.Strategy != "dp" {
		t.Fatalf("override not applied: %+v", over.Solver)
	}
}

// TestScenarioCostStage: a scenario's cost stage retargets evaluation
// at the chosen fidelity tier — the replay tier prices a streaming
// config differently from (and no worse than) the analytic default —
// and the solver stage searches on the stage's operator model. The
// multifid stage reports both exact and screen effort with an
// exact-verified winner.
func TestScenarioCostStage(t *testing.T) {
	pinned := `{"name":"pinned","model":"gpt3-6.7b","wafer":"wsc-4x8","config":{"dp":2,"tp":2,"tatp":8}}`
	ss, err := spec.ParseScenario([]byte(pinned))
	if err != nil {
		t.Fatal(err)
	}
	base := RunScenarioSpecs([]spec.ScenarioSpec{ss})[0]
	if base.Err != nil {
		t.Fatal(base.Err)
	}

	withReplay := ss
	withReplay.Cost = &spec.CostSpec{Backend: "replay"}
	rp := RunScenarioSpecs([]spec.ScenarioSpec{withReplay})[0]
	if rp.Err != nil {
		t.Fatal(rp.Err)
	}
	if rp.Result.StepTime == base.Result.StepTime {
		t.Errorf("replay stage priced identically to analytic (%v)", rp.Result.StepTime)
	}
	if rp.Result.StepTime > base.Result.StepTime*(1+1e-9) {
		t.Errorf("replay stage %v worse than analytic %v", rp.Result.StepTime, base.Result.StepTime)
	}

	// CLI-style override: same effect without touching the spec.
	stage, err := spec.CostOverride("replay", 0)
	if err != nil {
		t.Fatal(err)
	}
	over := RunScenarioSpecsWithStages([]spec.ScenarioSpec{ss}, nil, stage)[0]
	if over.Err != nil {
		t.Fatal(over.Err)
	}
	if over.Result.StepTime != rp.Result.StepTime {
		t.Errorf("cost override %v ≠ spec-declared stage %v", over.Result.StepTime, rp.Result.StepTime)
	}

	mf := ss
	mf.Cost = &spec.CostSpec{Backend: "surrogate", Seed: 42}
	mf.Solver = &spec.SolverSpec{Strategy: "multifid", Seed: 7}
	r := RunScenarioSpecs([]spec.ScenarioSpec{mf})[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Solver == nil || r.Solver.Strategy != "multifid" {
		t.Fatalf("solver stage missing: %+v", r.Solver)
	}
	if r.Solver.Backend != "surrogate@seed=42" {
		t.Errorf("solver backend %q", r.Solver.Backend)
	}
	if r.Solver.ScreenEvaluations == 0 || r.Solver.Evaluations == 0 {
		t.Errorf("effort split missing: exact=%d screen=%d", r.Solver.Evaluations, r.Solver.ScreenEvaluations)
	}
	// A surrogate cost stage supplies multifid's screen, never its
	// verify tier: the reported cost must be the analytic price of
	// the returned assignment, not a DNN estimate.
	sc, err := mf.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	exact := &solver.Analytic{W: sc.Wafer, M: sc.Model}
	g := model.BlockGraph(sc.Model)
	space := parallel.EnumerateConfigs(sc.Wafer.Dies(), true, 0)
	var reprice float64
	for i, cfgIdx := range r.Solver.Assignment {
		pen := 0.0
		if !exact.MemoryOK(space[cfgIdx]) {
			pen = 1e6
		}
		// Summed in the evaluator's order (intra+penalty as one term,
		// then inter) so equality is exact, not approximate.
		reprice += exact.Intra(g.Ops[i], space[cfgIdx]) + pen
		if i > 0 {
			reprice += exact.Inter(g.Ops[i-1], g.Ops[i], space[r.Solver.Assignment[i-1]], space[cfgIdx])
		}
	}
	if reprice != r.Solver.FinalCost {
		t.Errorf("multifid reported %v but the analytic re-price is %v — winner was surrogate-verified", r.Solver.FinalCost, reprice)
	}
}
