package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"temp/internal/engine"
	"temp/internal/sim"
	"temp/internal/spec"
)

// The solve-cold catalog: every (model, wafer, seq, batch) tuple is
// distinct (wafers are power-of-two grids, which sweeps need), so each solve's sweep misses the engine memo and pricing
// does the work. Strategies exclude portfolio and multifid so that no
// surrogate trains in this workload.
var (
	solveModels     = []string{"gpt3-6.7b", "llama2-7b", "deepseek-7b", "llama2-30b", "llama3-70b", "gpt3-76b", "deepseek-67b", "llama2-70b"}
	solveWafers     = []string{"wsc-4x8", "wsc-4x8-a100match"}
	solveSeqs       = []int{512, 1024, 1536, 2048, 3072, 4096, 6144, 8192}
	solveBatches    = []int{32, 64, 128, 256, 512}
	solveStrategies = []string{"ga", "anneal", "hillclimb", "dp"}
)

// solveCatalog returns the fixed catalog in a fixed order; solvePass
// draws each pass from it.
func solveCatalog() []spec.ScenarioSpec {
	rng := rand.New(rand.NewSource(20261017))
	var out []spec.ScenarioSpec
	for _, m := range solveModels {
		for _, w := range solveWafers {
			for _, s := range solveSeqs {
				for _, b := range solveBatches {
					st := solveStrategies[rng.Intn(len(solveStrategies))]
					sc := spec.ScenarioSpec{
						Name:  fmt.Sprintf("%s/%s/S%d/B%d/%s", m, w, s, b, st),
						Model: spec.ModelRef{Name: m}, Wafer: spec.WaferRef{Name: w},
						Seq: s, Batch: b,
						// No budget: each strategy runs its default
						// iterations, and results stay deterministic.
						Solver: &spec.SolverSpec{Strategy: st, Seed: 1 + rng.Int63n(1000)},
					}
					out = append(out, sc)
				}
			}
		}
	}
	return out
}

// solvePass returns one pass's scenarios: for each (model, wafer,
// strategy) of the catalog, one of its (seq, batch) entries, drawn by
// the seed, in a seeded order. Every pass, whatever the seed, has the
// same mix of model sizes, wafers and searches, so its CPU time per
// solve depends little on which entries the seed drew.
func solvePass(seed int64) []spec.ScenarioSpec {
	rng := rand.New(rand.NewSource(seed))
	groups := map[string][]spec.ScenarioSpec{}
	var keys []string
	for _, sc := range solveCatalog() {
		k := sc.Model.Name + "/" + sc.Wafer.Name + "/" + sc.Solver.Strategy
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], sc)
	}
	out := make([]spec.ScenarioSpec, 0, len(keys))
	for _, k := range keys {
		out = append(out, groups[k][rng.Intn(len(groups[k]))])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// solveOutcome is what the output check compares per scenario.
type solveOutcome struct {
	Config    string  `json:"config"`
	StepTime  float64 `json:"step_time"`
	Feasible  bool    `json:"feasible"`
	Evals     int     `json:"evals"`
	FinalCost float64 `json:"final_cost"`
	Dominant  string  `json:"dominant"`
}

func outcomeOf(r sim.ScenarioResult) solveOutcome {
	o := solveOutcome{Config: r.Result.Config.String(), StepTime: r.Result.Breakdown.StepTime, Feasible: r.Result.Feasible}
	if s := r.Solver; s != nil {
		o.Evals, o.FinalCost, o.Dominant = s.Evaluations, s.FinalCost, s.Dominant.String()
	}
	return o
}

const solveExpected = "solve-cold.json"

type solveCold struct {
	seed int64
	// solved lists the pass's solved scenarios.
	solved []spec.ScenarioSpec
}

// setup readies the engine only: the pass's scenarios and the expected
// outcomes are the benchmark's, so they are built after set-up is
// timed.
func (s *solveCold) setup(seed int64) error {
	engine.SetWorkers(2)
	s.seed = seed
	return nil
}

func (s *solveCold) measure(tr *tracer) (*report, error) {
	var want map[string]solveOutcome
	buf, err := os.ReadFile(filepath.Join(expectedDir, solveExpected))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(buf, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", solveExpected, err)
	}
	stream := solvePass(s.seed)

	rep := &report{Named: map[string]float64{}, Layers: map[string]float64{}}
	c := snapshot()
	evals := 0
	start, cpu0 := time.Now(), cpuTime()
	var last time.Time
	for _, ss := range stream {
		t0 := time.Now()
		r := sim.RunScenarioSpecs([]spec.ScenarioSpec{ss})[0]
		last = time.Now()
		rep.Attempted++
		if r.Err != nil {
			rep.Failed++
			rep.LatMS = append(rep.LatMS, -1)
			rep.fail("%s: %v", ss.Name, r.Err)
			continue
		}
		rep.LatMS = append(rep.LatMS, perCall(last.Sub(t0), 1, time.Millisecond))
		s.solved = append(s.solved, ss)
		w, ok := want[ss.Name]
		if got := outcomeOf(r); !ok || got != w {
			rep.fail("%s: got %+v, want %+v", ss.Name, got, w)
		}
		if tr != nil && r.Solver != nil {
			// The solver stage runs last in the scenario and reports
			// its own search time; the rest of the call (spec
			// resolution, the baselines.Best sweep, the stage's search
			// models) is attributed to the sweep.
			root := tr.add("sim.scenario", -1, t0, last)
			split := last.Add(-r.Solver.Elapsed)
			tr.add("baselines.best", root, t0, split)
			tr.add("solver."+r.Solver.Strategy, root, split, last)
			evals += r.Solver.Evaluations
		}
	}
	rep.WindowS = last.Sub(start).Seconds()
	rep.CPUMS = []float64{perCall(cpuTime()-cpu0, rep.Attempted-rep.Failed, time.Millisecond)}
	if tr != nil {
		counterLayers(rep, c, snapshot())
		solverLayers(tr, rep, evals)
		for _, l := range []struct {
			span, metric string
			unit         time.Duration
		}{
			{"sim.scenario", "sim.scenario_ms", time.Millisecond},
			{"baselines.best", "baselines.best_ms", time.Millisecond},
		} {
			d, n := tr.total(l.span)
			rep.Layers[l.metric] = perCall(d, n, l.unit)
		}
	}
	return rep, nil
}

// replay resolves the solved scenarios' specs (spec.Resolve) and
// prices the first few sweeps through the cost stack on their own
// candidates.
func (s *solveCold) replay(tr *tracer, rep *report) error {
	scs, err := replayResolve(tr, rep, s.solved)
	if err != nil {
		return err
	}
	var ins []pricingInput
	for _, sc := range scs[:min(len(scs), 8)] {
		r, err := sim.RunScenario(sc)
		if err != nil {
			return err
		}
		ins = append(ins, pricingInput{m: sc.Model, w: sc.Wafer, cfgs: tempSpace(sc.Wafer), chosen: r.Config})
	}
	return replayPricing(tr, rep, ins)
}

// regenSolve re-solves the whole catalog and writes the expected
// outcomes.
func regenSolve() error {
	engine.SetWorkers(2)
	want := map[string]solveOutcome{}
	for _, ss := range solveCatalog() {
		r := sim.RunScenarioSpecs([]spec.ScenarioSpec{ss})[0]
		if r.Err != nil {
			return fmt.Errorf("%s: %w", ss.Name, r.Err)
		}
		want[ss.Name] = outcomeOf(r)
	}
	buf, err := json.MarshalIndent(want, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(expectedDir, solveExpected), append(buf, '\n'), 0o644)
}
