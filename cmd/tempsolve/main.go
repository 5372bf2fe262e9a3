// Command tempsolve runs the partition-mapping search for a model:
// any registered search strategy (the paper's dual-level GA, simulated
// annealing, random-restart hill-climb, chain-DP only, or a portfolio
// racing them) over the hybrid strategy space, followed by a
// full-simulator evaluation of the best uniform configuration. Models
// and wafers resolve through the scenario registry; -scenario solves
// the model/wafer pair a JSON scenario defines (honouring its solver
// stage unless -strategy overrides it).
//
//	tempsolve -model gpt3-175b
//	tempsolve -model llama3-70b -strategy portfolio
//	tempsolve -model llama3-70b -strategy anneal -budget 20000,30s
//	tempsolve -model llama3-70b -no-ga
//	tempsolve -scenario examples/custom_scenario/scenario.json
//	tempsolve -scenarios scenarios/
//	tempsolve -list-strategies
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"temp/internal/baselines"
	"temp/internal/cli"
	"temp/internal/cost"
	"temp/internal/distrib"
	"temp/internal/fault"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/solver"
	"temp/internal/spec"
	"temp/internal/unit"
)

// resilience carries the -repair/-fault-campaign post-solve stages:
// both act on the solved dominant configuration, repair warm-starting
// its search from that mapping.
type resilience struct {
	repair       bool
	campaignPath string
	in           fault.Injection
	faultSeed    int64
	seed         int64
	workers      int
}

// run applies the stages to the solved mapping.
func (rz resilience) run(m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options, backendKey string) error {
	if rz.repair {
		rec, err := fault.RepairInjected(m, w, cfg, o, rz.in, rz.faultSeed, fault.RepairOptions{
			Backend: backendKey, Seed: rz.seed,
			Budget: solver.Budget{Workers: rz.workers},
		})
		if err != nil {
			return err
		}
		fmt.Printf("repair       link=%.0f%% core=%.0f%% seed=%d: %d dead links, %d dead dies\n",
			rz.in.LinkRate*100, rz.in.CoreRate*100, rz.faultSeed,
			rec.Report.DeadLinks, rec.Report.DeadDies)
		fmt.Printf("             re-price %.3f -> repaired %.3f on %s (%s, %d evals, %s)\n",
			rec.RepriceNorm, rec.RepairedNorm, rec.RepairedConfig,
			rec.Strategy, rec.WarmEvals, rec.WarmElapsed)
	}
	if rz.campaignPath != "" {
		cr, err := fault.Campaign{
			Model: m, Wafer: w, Config: cfg, Opts: o,
			Backend: backendKey, Workers: rz.workers,
		}.Run()
		if err != nil {
			return err
		}
		fmt.Printf("campaign     %d cells x %d trials -> %s\n",
			len(cr.Cells), cr.Trials, rz.campaignPath)
		return cli.WriteJSON(rz.campaignPath, cr)
	}
	return nil
}

// solve runs the search strategy plus full-simulator cross-check for
// one model/wafer pair. backendKey selects the cost backend whose
// operator model prices the search exactly ("" = analytic); the
// multifid strategy (and the portfolio, which races it) additionally
// screens on the surrogate tier seeded with screenSeed.
func solve(ctx context.Context, m model.Config, w hw.Wafer, st solver.Strategy, b solver.Budget, backendKey string, screenSeed int64, o cost.Options, rz resilience, fab *distrib.Fabric, raceSeed int64) error {
	g := model.BlockGraph(m)
	space := parallel.EnumerateConfigs(w.Dies(), true, 0)
	if len(space) == 0 {
		return fmt.Errorf("no power-of-two strategy space for %d dies on %s", w.Dies(), w.Name)
	}
	cm, screen, err := solver.SearchModels(st.Name(), backendKey, m, w, screenSeed)
	if err != nil {
		return err
	}
	p := solver.Problem{Graph: g, Space: space, Model: cm, Screen: screen}

	var assign solver.Assignment
	var stats solver.Stats
	if fab != nil && st.Name() == "portfolio" {
		// Distributed racing: one racer per worker process, winner
		// selection identical to the in-process portfolio.
		assign, stats, err = solver.DistributedRace(ctx, fab, m, w, backendKey, raceSeed, screenSeed, b)
		if err != nil {
			return err
		}
	} else {
		if fab != nil {
			fmt.Fprintln(os.Stderr, "tempsolve: -distribute races the portfolio; strategy", st.Name(), "runs in-process")
		}
		assign, stats = st.Solve(ctx, p, b)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "tempsolve: interrupted — reporting best-so-far mapping")
	}
	fmt.Printf("model        %s on %s\n", m, w.Name)
	backendName := "analytic"
	if backendKey != "" {
		backendName = backendKey
	}
	fmt.Printf("backend      %s\n", backendName)
	fmt.Printf("strategy     %s", stats.Strategy)
	if stats.Winner != "" {
		fmt.Printf(" (winner %s of %d racers)", stats.Winner, len(stats.Sub))
	}
	fmt.Println()
	fmt.Printf("search space %d strategies × %d operators\n", len(space), len(g.Ops))
	fmt.Printf("search time  %s (%d exact cost-model evaluations", stats.Elapsed, stats.Evaluations)
	if stats.ScreenEvaluations > 0 {
		fmt.Printf(", %d surrogate screen evaluations", stats.ScreenEvaluations)
	}
	switch {
	case stats.Generations > 0:
		fmt.Printf(", %d GA generations", stats.Generations)
	case stats.Restarts > 0:
		fmt.Printf(", %d moves over %d restarts", stats.Iterations, stats.Restarts)
	case stats.Iterations > 0:
		fmt.Printf(", %d moves", stats.Iterations)
	}
	fmt.Println(")")
	if len(stats.Checkpoints) > 0 {
		last := stats.Checkpoints[len(stats.Checkpoints)-1]
		fmt.Printf("checkpoints  %d (last: iter %d, cost %.3fms)\n",
			len(stats.Checkpoints), last.Iteration, last.Cost*1e3)
	}
	fmt.Printf("seed cost %.3fms, final cost %.3fms\n", stats.DPCost*1e3, stats.FinalCost*1e3)
	fmt.Println("per-operator strategies:")
	for i, op := range g.Ops {
		fmt.Printf("  %-14s %s\n", op.Name, space[assign[i]])
	}
	idx, share := solver.Uniform(assign)
	fmt.Printf("dominant strategy %s (%.0f%% of operators)\n", space[idx], share*100)

	// Cross-check against the full simulator sweep.
	best, err := baselines.Best(baselines.TEMP(), m, w)
	if err != nil {
		return err
	}
	fmt.Printf("full-simulator best: %s → step %s, %.1f tokens/s (OOM=%v)\n",
		best.Config, unit.Seconds(best.StepTime), best.ThroughputTokens, best.OOM())
	// The resilience stages act on the mapping a user would deploy —
	// the full-simulator best — so the recovery norms are relative to
	// the deployed baseline.
	return rz.run(m, w, best.Config, o, backendKey)
}

// solveScenario resolves a scenario spec and solves its model/wafer.
// The scenario's own solver stage applies unless the CLI overrides
// the strategy.
func solveScenario(ctx context.Context, ss spec.ScenarioSpec, st solver.Strategy, b solver.Budget, override bool, costStage *spec.CostStage, screenSeed int64, rz resilience, fab *distrib.Fabric, raceSeed int64) error {
	sc, err := ss.Resolve()
	if err != nil {
		return err
	}
	if costStage != nil {
		sc.Cost = costStage
	}
	if !override && sc.Solver != nil {
		st = sc.Solver.Strategy
		workers := b.Workers
		b = sc.Solver.Budget
		if b.Workers == 0 {
			b.Workers = workers
		}
		if sc.Solver.Seed != 0 {
			screenSeed = sc.Solver.Seed
		}
	}
	fmt.Printf("scenario     %s\n", sc.Name)
	backendKey := ""
	if sc.Cost != nil {
		backendKey = sc.Cost.Key
	}
	// Cost-stage surrogate seed wins; otherwise the CLI/stage seed,
	// matching the direct model/wafer path.
	if s := sc.Cost.SurrogateSeed(); s != 0 {
		screenSeed = s
	}
	return solve(ctx, sc.Model, sc.Wafer, st, b, backendKey, screenSeed, sc.System.Opts, rz, fab, raceSeed)
}

var (
	rt = cli.New("tempsolve", "race portfolio strategies across N worker subprocesses",
		"backends", "models", "wafers", "strategies")
	target    = cli.TargetFlags()
	strategy  = flag.String("strategy", "ga", "search strategy (-list-strategies)")
	backend   = flag.String("backend", "", "cost backend whose operator model prices the search (-list-backends)")
	budget    = flag.String("budget", "", "search budget: eval count, duration, or both (\"20000,30s\")")
	noGA      = flag.Bool("no-ga", false, "stop after chain dynamic programming (alias for -strategy dp)")
	seed      = flag.Int64("seed", 7, "search randomness seed")
	repair    = flag.Bool("repair", false, "after solving, inject a seeded fault mask and repair from the solved mapping")
	faultLink = flag.Float64("fault-link", 0.15, "-repair link-fault rate")
	faultCore = flag.Float64("fault-core", 0, "-repair core-fault rate")
	faultSeed = flag.Int64("fault-seed", 3, "-repair fault-mask seed")
	campaign  = flag.String("fault-campaign", "", "run a fault campaign on the solved mapping and write survivability JSON to this file")
	scenario  = flag.String("scenario", "", "solve the model/wafer of one scenario JSON file")
	scenarios = flag.String("scenarios", "", "solve every *.json scenario in a directory")
)

func main() {
	flag.Parse()
	defer rt.Close()
	if rt.Start(nil) {
		return
	}

	// First SIGINT/SIGTERM cancels the solve gracefully — the solver
	// returns its best-so-far at the next budget check and distributed
	// shards are cancelled; a second signal kills the process (stop()
	// restores default handling after the first delivery).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	strategyName := *strategy
	overridden := *noGA
	strategySet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "strategy" || f.Name == "budget" {
			overridden = true
		}
		if f.Name == "strategy" {
			strategySet = true
		}
	})
	if *noGA {
		if strategySet && strategyName != "dp" {
			rt.Check(fmt.Errorf("-no-ga conflicts with -strategy %s (it is an alias for -strategy dp)", strategyName))
		}
		strategyName = "dp"
	}
	st, err := solver.NewStrategy(strategyName, solver.Params{"seed": float64(*seed)})
	rt.Check(err)
	b, err := spec.ParseBudget(*budget)
	rt.Check(err)
	b.Workers = rt.Workers
	costStage, err := spec.CostOverride(*backend, *seed)
	rt.Check(err)
	backendKey := ""
	if costStage != nil {
		backendKey = costStage.Key
	}
	fab := rt.Fabric(distrib.Options{Workers: rt.Distribute}, rt.MemoDir)
	defer fab.Shutdown()
	rz := resilience{
		repair:       *repair,
		campaignPath: *campaign,
		in:           fault.Injection{LinkRate: *faultLink, CoreRate: *faultCore, CoresPerDie: 64},
		faultSeed:    *faultSeed,
		seed:         *seed,
		workers:      rt.Workers,
	}

	switch {
	case *scenario != "":
		ss, err := spec.LoadScenario(*scenario)
		if err == nil {
			err = solveScenario(ctx, ss, st, b, overridden, costStage, *seed, rz, fab, *seed)
		}
		rt.Check(err)
		return
	case *scenarios != "":
		sss, err := spec.LoadScenarioDir(*scenarios)
		rt.Check(err)
		for i, ss := range sss {
			if i > 0 {
				fmt.Println()
			}
			rt.Check(solveScenario(ctx, ss, st, b, overridden, costStage, *seed, rz, fab, *seed))
		}
		return
	}

	m, w, err := target.Resolve()
	rt.Check(err)
	rt.Check(solve(ctx, m, w, st, b, backendKey, *seed, baselines.TEMP().Opts, rz, fab, *seed))
}
