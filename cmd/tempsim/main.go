// Command tempsim evaluates one training configuration on the wafer
// simulator and prints the latency/memory/power breakdown. Models and
// wafers resolve through the scenario registry, and whole scenarios
// can be supplied as JSON files. -strategy adds (or overrides) a
// partition-mapping search stage on scenario runs, solved by any
// registered strategy under an optional -budget.
//
//	tempsim -model gpt3-6.7b -dp 4 -tatp 8
//	tempsim -model llama3-70b -engine smap -tp 8 -dp 4 -recompute none
//	tempsim -scenario examples/custom_scenario/scenario.json
//	tempsim -scenario scenario.json -strategy portfolio -budget 30s
//	tempsim -scenarios scenarios/        # batch, one result per file
//	tempsim -list-models                 # registry contents
//	tempsim -list-strategies             # search strategies
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"temp/internal/cli"
	"temp/internal/cost"
	"temp/internal/distrib"
	"temp/internal/engine"
	"temp/internal/fault"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/sim"
	"temp/internal/spec"
	"temp/internal/unit"
)

// printBreakdown renders one evaluation in tempsim's usual layout.
func printBreakdown(m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options, b cost.Breakdown) {
	nw := o.Wafers
	if nw < 1 {
		nw = 1
	}
	fmt.Printf("model      %s on %s (%d dies, %d wafer(s))\n", m, w.Name, w.Dies(), nw)
	fmt.Printf("config     %s engine=%s recompute=%s\n", cfg, o.Engine, o.Recompute)
	fmt.Printf("step       %s\n", unit.Seconds(b.StepTime))
	fmt.Printf("  compute  %s\n", unit.Seconds(b.ComputeTime))
	fmt.Printf("  stream   %s (exposed)\n", unit.Seconds(b.StreamTime))
	fmt.Printf("  coll     %s\n", unit.Seconds(b.CollectiveTime))
	fmt.Printf("  bubble   %s\n", unit.Seconds(b.BubbleTime))
	fmt.Printf("memory     %s / %s per die (OOM=%v)\n",
		unit.Bytes(b.Memory.Total()), unit.Bytes(b.Memory.Capacity), b.OOM())
	fmt.Printf("  weights=%s grads=%s optim=%s acts=%s stream=%s\n",
		unit.Bytes(b.Memory.Weights), unit.Bytes(b.Memory.Grads),
		unit.Bytes(b.Memory.Optimizer), unit.Bytes(b.Memory.Activations),
		unit.Bytes(b.Memory.StreamBuf))
	fmt.Printf("throughput %.1f tokens/s, power %.0f W, %.3f tokens/s/W, BW util %.1f%%\n",
		b.ThroughputTokens, b.Power, b.PowerEfficiency, b.BWUtilization*100)
}

// printScenarioResult renders one batch entry compactly.
func printScenarioResult(r sim.ScenarioResult) {
	if r.Err != nil {
		fmt.Printf("%-24s ERROR: %v\n", r.Name, r.Err)
		return
	}
	status := "ok"
	if !r.Result.Feasible {
		status = "OOM"
	}
	line := fmt.Sprintf("%-24s %-12s %-32s %-4s step=%s tput=%.1f tok/s",
		r.Name, r.Result.System, r.Result.Config.String(), status,
		unit.Seconds(r.Result.StepTime), r.Result.ThroughputTokens)
	if r.Faulted {
		line += fmt.Sprintf(" fault-norm-tput=%.3f", r.FaultNormTput)
	}
	if r.Recovery != nil {
		line += fmt.Sprintf(" repair=%.3f->%.3f", r.Recovery.RepriceNorm, r.Recovery.RepairedNorm)
	}
	if r.Solver != nil {
		line += fmt.Sprintf(" solver=%s cost=%.3fms", r.Solver.Strategy, r.Solver.FinalCost*1e3)
	}
	fmt.Println(line)
}

// printRecovery renders a repair-stage record.
func printRecovery(rec *fault.Recovery) {
	fmt.Printf("repair     %d dead links, %d dead dies: re-price %.3f -> repaired %.3f on %s (%s, %d evals, %s)\n",
		rec.Report.DeadLinks, rec.Report.DeadDies, rec.RepriceNorm, rec.RepairedNorm,
		rec.RepairedConfig, rec.Strategy, rec.WarmEvals, rec.WarmElapsed)
	if rec.ColdEvals > 0 {
		fmt.Printf("           cold re-solve: %.3f (%d evals, %s)\n",
			rec.ColdNorm, rec.ColdEvals, rec.ColdElapsed)
	}
}

// printSolverOutcome renders a scenario's search stage.
func printSolverOutcome(o *sim.SolverOutcome) {
	name := o.Strategy
	if o.Winner != "" {
		name += " (winner " + o.Winner + ")"
	}
	evals := fmt.Sprintf("%d exact evals", o.Evaluations)
	if o.ScreenEvaluations > 0 {
		evals += fmt.Sprintf(" + %d screen evals", o.ScreenEvaluations)
	}
	fmt.Printf("solver     %s on %s: seed %.3fms -> final %.3fms (%s, %s)\n",
		name, o.Backend, o.DPCost*1e3, o.FinalCost*1e3, evals, o.Elapsed)
	fmt.Printf("           dominant per-op strategy %s (%.0f%% of operators)\n",
		o.Dominant, o.Share*100)
}

func runScenarioFile(ctx context.Context, override *spec.SolverStage, costStage *spec.CostStage) error {
	ss, err := spec.LoadScenario(*scenario)
	if err != nil {
		return err
	}
	specs := []spec.ScenarioSpec{ss}
	cli.AttachResilience(specs, *repair, *campaign != "")
	sc, err := specs[0].Resolve()
	if err != nil {
		return err
	}
	if override != nil {
		sc.Solver = override
	}
	if costStage != nil {
		sc.Cost = costStage
	}
	// One pass: RunScenarios carries the breakdown plus the optional
	// solver and fault stages.
	res := sim.RunScenariosCtx(ctx, []spec.Scenario{sc})[0]
	if res.Err != nil {
		return res.Err
	}
	r := res.Result
	opts := sc.System.Opts
	if sc.Wafers > 1 {
		opts.Wafers = sc.Wafers
	}
	backend := "analytic"
	if sc.Cost != nil && sc.Cost.Key != "" {
		backend = sc.Cost.Key
	}
	fmt.Printf("scenario   %s (system %s, backend %s)\n", sc.Name, sc.System.Name, backend)
	printBreakdown(sc.Model, sc.Wafer, r.Config, opts, r.Breakdown)
	if !r.Feasible {
		fmt.Println("status     OOM: no feasible configuration; showing lowest-memory attempt")
	}
	if res.Faulted {
		fmt.Printf("fault      norm tput %.3f (link=%.2f core=%.2f, %d trials)\n",
			res.FaultNormTput, sc.Fault.LinkRate, sc.Fault.CoreRate, sc.Fault.TrialCount())
	}
	if res.Recovery != nil {
		printRecovery(res.Recovery)
	}
	if res.Campaign != nil {
		cli.PrintCampaign("campaign  ", res.Campaign)
		if *campaign != "" {
			if err := cli.WriteJSON(*campaign, res.Campaign); err != nil {
				return err
			}
		}
	}
	if res.Solver != nil {
		printSolverOutcome(res.Solver)
	}
	return nil
}

// runBatch runs the -scenarios directory, sharded across worker
// subprocesses when -distribute or a spec-declared distrib block asks;
// results merge in spec order and match the in-process run
// bit-for-bit. It reports whether every scenario succeeded.
func runBatch(ctx context.Context, ov sim.Overrides) (bool, error) {
	specs, err := spec.LoadScenarioDir(*scenarios)
	if err != nil {
		return false, err
	}
	cli.AttachResilience(specs, *repair, *campaign != "")
	fab := rt.Fabric(cli.SpecDistrib(distrib.Options{Workers: rt.Distribute}, specs), rt.MemoDir)
	defer fab.Shutdown()
	ok := true
	var lastCampaign *fault.CampaignResult
	for _, r := range sim.RunScenarioSpecsOnCtx(ctx, fab, specs, ov) {
		printScenarioResult(r)
		ok = ok && r.Err == nil
		if r.Campaign != nil {
			lastCampaign = r.Campaign
		}
	}
	if *campaign != "" && lastCampaign != nil {
		return ok, cli.WriteJSON(*campaign, lastCampaign)
	}
	return ok, nil
}

var (
	rt = cli.New("tempsim", "shard -scenarios batches across N worker subprocesses",
		"backends", "models", "wafers", "systems", "strategies")
	target    = cli.TargetFlags()
	dp        = flag.Int("dp", 1, "data parallel degree")
	tp        = flag.Int("tp", 1, "tensor parallel degree")
	sp        = flag.Int("sp", 1, "sequence parallel degree")
	cp        = flag.Int("cp", 1, "context parallel degree")
	tatp      = flag.Int("tatp", 1, "TATP stream parallel degree")
	pp        = flag.Int("pp", 1, "pipeline degree across wafers")
	wafers    = flag.Int("wafers", 1, "wafer count")
	mapper    = flag.String("engine", "tcme", "mapping engine: smap|gmap|tcme")
	rec       = flag.String("recompute", "selective", "recompute: none|selective|full")
	fsdp      = flag.Bool("fsdp", false, "fully sharded data parallelism")
	mesp      = flag.Bool("megatron-sp", false, "Megatron-3 fused sequence parallelism")
	mb        = flag.Int("microbatch", 0, "sequences per rank per micro-step")
	debugTr   = flag.Bool("debug", false, "print the calibration trace")
	scenario  = flag.String("scenario", "", "run one scenario JSON file")
	scenarios = flag.String("scenarios", "", "run every *.json scenario in a directory")
	strategy  = flag.String("strategy", "", "add/override a solver stage on scenario runs (-list-strategies)")
	budget    = flag.String("budget", "", "solver-stage budget: eval count, duration, or both (\"20000,30s\")")
	repair    = flag.Bool("repair", false, "add a degradation-aware repair stage to scenario fault stages")
	campaign  = flag.String("fault-campaign", "", "run a deterministic fault campaign and write survivability JSON to this file")
	seed      = flag.Int64("seed", 7, "solver-stage and surrogate-training randomness seed")
	backend   = flag.String("backend", "", "cost backend pricing the evaluation (-list-backends); accepts name or name@seed=N")
)

func main() {
	flag.Parse()
	defer rt.Close()
	if rt.Start(nil) {
		return
	}

	// First SIGINT/SIGTERM cancels scenario runs gracefully (solves
	// stop at their next budget check, distributed shards are
	// cancelled); a second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *scenario != "" || *scenarios != "" {
		ov := sim.Overrides{Strategy: *strategy, Budget: *budget, Seed: *seed, Workers: rt.Workers, Backend: *backend}
		override, costStage, err := ov.Stages()
		rt.Check(err)
		if *scenario != "" {
			rt.Check(runScenarioFile(ctx, override, costStage))
			return
		}
		ok, err := runBatch(ctx, ov)
		rt.Check(err)
		if !ok {
			os.Exit(1)
		}
		return
	}

	m, w, err := target.Resolve()
	rt.Check(err)
	cfg := parallel.Config{DP: *dp, TP: *tp, SP: *sp, CP: *cp, TATP: *tatp, PP: *pp,
		FSDP: *fsdp, MegatronSP: *mesp}
	o := cost.Options{Microbatch: *mb, Wafers: *wafers, DistributedOptimizer: true}
	switch strings.ToLower(*mapper) {
	case "smap":
		o.Engine = cost.SMap
	case "gmap":
		o.Engine = cost.GMap
	default:
		o.Engine = cost.TCMEEngine
	}
	switch strings.ToLower(*rec) {
	case "none":
		o.Recompute = cost.RecomputeNone
	case "full":
		o.Recompute = cost.RecomputeFull
	default:
		o.Recompute = cost.RecomputeSelective
	}

	key := ""
	if *backend != "" {
		stage, err := spec.CostOverride(*backend, *seed)
		rt.Check(err)
		key = stage.Key
	}
	if *repair {
		rt.Check(fmt.Errorf("-repair needs a scenario with a fault stage (-scenario/-scenarios)"))
	}
	b, err := engine.EvaluateJob(engine.Job{Model: m, Wafer: w, Config: cfg, Opts: o, Backend: key})
	rt.Check(err)
	printBreakdown(m, w, cfg, o, b)
	if *debugTr {
		fmt.Println("trace     ", cost.Debug(m, w, cfg, o))
	}
	if *campaign != "" {
		cr, err := fault.Campaign{
			Model: m, Wafer: w, Config: cfg, Opts: o,
			Backend: key, Workers: rt.Workers,
		}.Run()
		rt.Check(err)
		cli.PrintCampaign("campaign  ", &cr)
		rt.Check(cli.WriteJSON(*campaign, &cr))
	}
}
