package sim

import (
	"context"
	"fmt"
	"time"

	"temp/internal/baselines"
	"temp/internal/engine"
	"temp/internal/fault"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/solver"
	"temp/internal/spec"
)

// RunScenario evaluates one resolved scenario:
//
//   - an explicit configuration is priced directly through the
//     evaluation engine (memoized, worker-bounded),
//   - Wafers > 1 runs the §VIII-E multi-wafer assembly,
//   - otherwise the system's configuration space is swept for its
//     best feasible configuration (the footing every figure uses).
func RunScenario(sc spec.Scenario) (baselines.Result, error) {
	sys := sc.System
	if sc.Cost != nil {
		// The cost stage retargets every evaluation of this scenario
		// at the chosen fidelity tier; the backend key is part of the
		// engine's memo key, so tiers never share cache entries.
		sys.Backend = sc.Cost.Key
	}
	if sc.Config != nil {
		opts := sys.Opts
		if sc.Wafers > 1 {
			opts.Wafers = sc.Wafers
		}
		b, err := engine.EvaluateJob(engine.Job{
			Model: sc.Model, Wafer: sc.Wafer, Config: *sc.Config,
			Opts: opts, Backend: sys.Backend,
		})
		if err != nil {
			return baselines.Result{}, fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
		}
		return baselines.Result{
			System: sys.Name, Config: *sc.Config,
			Breakdown: b, Feasible: !b.OOM(),
		}, nil
	}
	if sc.Wafers > 1 {
		return MultiWafer(sys, sc.Model, sc.Wafer, sc.Wafers)
	}
	return baselines.Best(sys, sc.Model, sc.Wafer)
}

// SolverOutcome reports a scenario's optional partition-mapping
// search stage: which strategy ran, what it found, and the dominant
// per-operator configuration it assigns.
type SolverOutcome struct {
	// Strategy is the strategy that ran; Winner names the portfolio
	// racer that produced the result (empty otherwise).
	Strategy string
	Winner   string
	// Backend is the cost backend whose operator model priced the
	// search exactly ("analytic" unless the scenario's cost stage
	// retargeted it).
	Backend string
	// DPCost and FinalCost are the chain-DP seed and refined costs.
	DPCost, FinalCost float64
	// Evaluations counts distinct exact cost-model terms priced;
	// ScreenEvaluations counts cheap surrogate-tier terms during
	// multi-fidelity search.
	Evaluations       int
	ScreenEvaluations int
	// Elapsed is the search wall-clock time.
	Elapsed time.Duration
	// Dominant is the configuration most operators are assigned;
	// Share is its fraction of operators.
	Dominant parallel.Config
	Share    float64
	// Assignment is the per-operator strategy-space assignment.
	Assignment solver.Assignment
	// RobustMasks is the fault-mask ensemble size when the stage ran
	// with the robust objective (0 otherwise).
	RobustMasks int
}

// ScenarioResult pairs one scenario with its outcome. Err is set when
// the scenario could not be evaluated (e.g. nothing placeable).
type ScenarioResult struct {
	Name   string
	Result baselines.Result
	// FaultNormTput is the §VIII-F normalized throughput under the
	// scenario's fault injection; valid only when Faulted is true.
	FaultNormTput float64
	Faulted       bool
	// Solver is the optional search-stage outcome.
	Solver *SolverOutcome
	// Recovery is the optional repair-stage record (FaultSpec.Repair).
	Recovery *fault.Recovery
	// Campaign is the optional survivability grid
	// (FaultSpec.Campaign).
	Campaign *fault.CampaignResult
	Err      error
}

// runSolverStage runs a scenario's search stage: the registered
// strategy searches the per-operator strategy space of the scenario's
// model/wafer pair under the stage's budget, priced by the scenario's
// cost backend (analytic unless the cost stage retargets it). The
// multifid strategy — and the portfolio, which adds a multifid racer
// when screening is available — additionally gets the surrogate
// tier's operator DNN as the cheap screening model. Deterministic:
// the strategy is seeded, surrogate training is seeded, and the
// evaluators are pure.
func runSolverStage(ctx context.Context, sc spec.Scenario) (*SolverOutcome, error) {
	g := model.BlockGraph(sc.Model)
	space := parallel.EnumerateConfigs(sc.Wafer.Dies(), true, 0)

	backendKey := ""
	if sc.Cost != nil {
		backendKey = sc.Cost.Key
	}
	// The surrogate screen reuses the cost stage's training seed when
	// one is pinned (one spec → one reproducible run), falling back
	// to the solver stage's own seed so -seed behaves identically on
	// the scenario and direct CLI paths.
	screenSeed := sc.Solver.Seed
	if s := sc.Cost.SurrogateSeed(); s != 0 {
		screenSeed = s
	}
	cm, screen, err := solver.SearchModels(sc.Solver.Name, backendKey, sc.Model, sc.Wafer, screenSeed)
	if err != nil {
		return nil, fmt.Errorf("sim: scenario %q solver stage: %w", sc.Name, err)
	}
	robustMasks := 0
	if rs := sc.Solver.Robust; rs != nil {
		rm, err := fault.NewRobustModel(cm, sc.Model, sc.Wafer,
			rs.Injection(), rs.Masks, rs.RandSeed(), rs.FaultWeight)
		if err != nil {
			return nil, fmt.Errorf("sim: scenario %q solver stage: %w", sc.Name, err)
		}
		cm = rm
		robustMasks = rm.Masks()
	}
	p := solver.Problem{Graph: g, Space: space, Model: cm, Screen: screen}
	b := sc.Solver.Budget
	if b.Workers == 0 {
		// Spec-declared stages inherit the engine's -workers bound so
		// scenario batches do not oversubscribe the machine.
		b.Workers = engine.Workers()
	}
	a, stats := sc.Solver.Strategy.Solve(ctx, p, b)
	idx, share := solver.Uniform(a)
	name := "analytic"
	if backendKey != "" {
		name = backendKey
	}
	out := &SolverOutcome{
		Strategy: stats.Strategy, Winner: stats.Winner, Backend: name,
		DPCost: stats.DPCost, FinalCost: stats.FinalCost,
		Evaluations: stats.Evaluations, ScreenEvaluations: stats.ScreenEvaluations,
		Elapsed: stats.Elapsed,
		Share:   share, Assignment: a,
		RobustMasks: robustMasks,
	}
	if len(space) > 0 {
		out.Dominant = space[idx]
	}
	return out, nil
}

// runOne evaluates a scenario including its optional solver and fault
// stages. ctx cancellation surfaces as the scenario's Err; a solve
// already in progress returns its best-so-far before the error is
// stamped (the solver's run.stop checks the same context).
func runOne(ctx context.Context, sc spec.Scenario) ScenarioResult {
	if ctx.Err() != nil {
		return ScenarioResult{Name: sc.Name, Err: ctx.Err()}
	}
	r, err := RunScenario(sc)
	out := ScenarioResult{Name: sc.Name, Result: r, Err: err}
	if err == nil && sc.Solver != nil {
		out.Solver, out.Err = runSolverStage(ctx, sc)
		err = out.Err
	}
	if err == nil && ctx.Err() != nil {
		out.Err = ctx.Err()
		return out
	}
	if err != nil || sc.Fault == nil {
		return out
	}
	in := fault.Injection{
		LinkRate:    sc.Fault.LinkRate,
		CoreRate:    sc.Fault.CoreRate,
		CoresPerDie: sc.Fault.CoresPerDie,
	}
	opts := sc.System.Opts
	if sc.Wafers > 1 {
		opts.Wafers = sc.Wafers
	}
	backendKey := ""
	if sc.Cost != nil {
		backendKey = sc.Cost.Key
	}
	if in.Active() {
		out.FaultNormTput, out.Err = fault.NormalizedThroughputWith(backendKey, sc.Model, sc.Wafer, r.Config, opts,
			in, sc.Fault.TrialCount(), sc.Fault.RandSeed())
		if out.Err != nil {
			return out
		}
		out.Faulted = true
		if sc.Fault.Repair != nil {
			ro, err := sc.Fault.Repair.Options()
			if err == nil {
				ro.Backend = backendKey
				if ro.Budget.Workers == 0 {
					ro.Budget.Workers = engine.Workers()
				}
				var rec fault.Recovery
				rec, err = fault.RepairInjected(sc.Model, sc.Wafer, r.Config, opts,
					in, sc.Fault.RandSeed(), ro)
				if err == nil {
					out.Recovery = &rec
				}
			}
			if err != nil {
				out.Err = err
				return out
			}
		}
	}
	if cs := sc.Fault.Campaign; cs != nil {
		c := fault.Campaign{
			Model: sc.Model, Wafer: sc.Wafer, Config: r.Config, Opts: opts,
			Backend:   backendKey,
			LinkRates: cs.LinkRates, CoreRates: cs.CoreRates,
			CoresPerDie: cs.CoresPerDie, Trials: cs.Trials, Seed: cs.Seed,
			Workers: engine.Workers(),
		}
		cr, err := c.Run()
		if err != nil {
			out.Err = err
			return out
		}
		out.Campaign = &cr
	}
	return out
}

// RunScenarios fans a scenario batch out over the evaluation engine
// and returns results in input order regardless of completion order.
// Results are deterministic: the cost model is pure and each
// scenario's fault stage seeds its own RNG, so any worker count
// produces the same output.
func RunScenarios(scs []spec.Scenario) []ScenarioResult {
	return RunScenariosCtx(context.Background(), scs)
}

// RunScenariosCtx is RunScenarios with cancellation: scenarios not
// yet started when ctx ends report ctx.Err(); a scenario mid-solve
// stops at its next budget check and reports the same.
func RunScenariosCtx(ctx context.Context, scs []spec.Scenario) []ScenarioResult {
	out := make([]ScenarioResult, len(scs))
	engine.Map(len(scs), func(i int) {
		out[i] = runOne(ctx, scs[i])
	})
	return out
}

// RunScenarioSpecs resolves and runs serialized scenario specs. A
// spec that fails to resolve contributes an error result rather than
// aborting the batch.
func RunScenarioSpecs(specs []spec.ScenarioSpec) []ScenarioResult {
	return RunScenarioSpecsWithStages(specs, nil, nil)
}

// RunScenarioSpecsWithStages is RunScenarioSpecs with optional
// solver-stage and cost-stage overrides — the CLI
// -strategy/-budget/-backend flags. A non-nil stage replaces the
// corresponding spec-declared stage on every scenario in the batch.
func RunScenarioSpecsWithStages(specs []spec.ScenarioSpec, override *spec.SolverStage, costStage *spec.CostStage) []ScenarioResult {
	return RunScenarioSpecsWithStagesCtx(context.Background(), specs, override, costStage)
}

// RunScenarioSpecsWithStagesCtx is RunScenarioSpecsWithStages with
// cancellation (see RunScenariosCtx).
func RunScenarioSpecsWithStagesCtx(ctx context.Context, specs []spec.ScenarioSpec, override *spec.SolverStage, costStage *spec.CostStage) []ScenarioResult {
	scs := make([]spec.Scenario, len(specs))
	errs := make([]error, len(specs))
	for i, s := range specs {
		scs[i], errs[i] = s.Resolve()
		if errs[i] == nil && override != nil {
			scs[i].Solver = override
		}
		if errs[i] == nil && costStage != nil {
			scs[i].Cost = costStage
		}
	}
	out := make([]ScenarioResult, len(specs))
	engine.Map(len(specs), func(i int) {
		if errs[i] != nil {
			out[i] = ScenarioResult{Name: specs[i].Name, Err: errs[i]}
			return
		}
		out[i] = runOne(ctx, scs[i])
	})
	return out
}
