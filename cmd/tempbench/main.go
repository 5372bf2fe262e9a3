// Command tempbench regenerates the paper's tables and figures
// through the repository's simulator. Run with -list to see the
// experiment IDs, -exp <id> for a single artefact, or no flags for
// the full evaluation suite. The suite fans out across -workers
// goroutines on the shared evaluation engine; -json additionally
// writes each experiment's wall-clock time and headline observation
// to a machine-readable file for perf tracking across revisions.
//
// Models and wafers resolve through the scenario registry: -model and
// -wafer re-run the Table-II-driven experiments on a different
// footing, and -scenario/-scenarios evaluate declarative JSON
// scenarios outside the paper's frozen set entirely.
//
//	tempbench -exp fig13          # Fig. 13 training comparison
//	tempbench -quick              # full suite on reduced model set
//	tempbench -quick -json bench.json
//	tempbench -exp fig13 -model llama3-70b -wafer wsc-6x8
//	tempbench -exp strategies     # search-strategy comparison table
//	tempbench -scenarios scenarios/   # batch of JSON scenarios
//	tempbench -scenario s.json -strategy portfolio -budget 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"temp/internal/baselines"
	"temp/internal/cli"
	"temp/internal/collective"
	"temp/internal/cost"
	"temp/internal/distrib"
	"temp/internal/engine"
	"temp/internal/experiments"
	"temp/internal/fault"
	"temp/internal/hw"
	"temp/internal/sim"
	"temp/internal/spec"
	"temp/internal/unit"
)

// record is one experiment's entry in the -json output. Seconds is
// wall-clock while the suite's other experiments run concurrently on
// the same cores, so it ranks experiments within one run; for
// revision-to-revision comparison use TotalSeconds, or time one
// experiment in isolation with -exp.
type record struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	Rows    int     `json:"rows"`
	// Backend is the cost backend the run priced through and Strategy
	// the solver strategy in effect (scenario runs) — together they
	// let BENCH_*.json track the fidelity/speed trajectory across
	// revisions.
	Backend  string `json:"backend,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Headline string `json:"headline,omitempty"`
}

// output is the top-level -json document.
type output struct {
	Quick        bool    `json:"quick"`
	Workers      int     `json:"workers"`
	Backend      string  `json:"backend,omitempty"`
	TotalSeconds float64 `json:"total_seconds"`
	// Memory-tier memo counters: hits served from the in-process
	// cache, misses priced exactly this run. EvalsPerSec is the
	// candidate-throughput headline — exact cost-model computations
	// per wall-clock second.
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	// Disk-tier counter: results served from the -memo-dir persistent
	// memo instead of being re-priced (warm starts drive this to the
	// cold run's miss count while misses drop to ~0).
	CacheDiskHits int64 `json:"cache_disk_hits"`
	// Persistent-memo hygiene: records rewritten away by open-time
	// auto-compaction and corrupt tail bytes dropped during recovery
	// (both 0 for a clean or absent memo).
	CacheDiskCompacted    int `json:"cache_disk_compacted,omitempty"`
	CacheDiskDroppedBytes int `json:"cache_disk_dropped_bytes,omitempty"`
	// Batched-pricing telemetry: PriceBatch kernel invocations and the
	// total candidates they priced (BatchedJobs/BatchCalls is the mean
	// batch size).
	BatchCalls  int64 `json:"batch_calls"`
	BatchedJobs int64 `json:"batched_jobs"`
	// Lowering-cache counters (the memoized collective lowerings the
	// hot path shares across candidates) ride along so BENCH_*.json
	// tracks hot-path cache effectiveness across revisions.
	LoweringTemplates int   `json:"lowering_templates,omitempty"`
	LoweringHits      int64 `json:"lowering_hits,omitempty"`
	LoweringMisses    int64 `json:"lowering_misses,omitempty"`
	// TCME memo counters: optimized (template, bytes, options) entries
	// stored, and lookups that replayed one or ran the optimizer.
	TCMEMemoEntries int   `json:"tcme_memo_entries,omitempty"`
	TCMEMemoHits    int64 `json:"tcme_memo_hits,omitempty"`
	TCMEMemoMisses  int64 `json:"tcme_memo_misses,omitempty"`
	// Distributed-run telemetry: the -distribute worker count and the
	// fabric's per-worker throughput / steal counters. The engine
	// cache counters above aggregate coordinator + workers.
	Distribute  int            `json:"distribute,omitempty"`
	Distrib     *distrib.Stats `json:"distrib,omitempty"`
	Experiments []record       `json:"experiments"`
}

// writeOutput completes the -json document and writes it: the worker
// pool size, then the engine cache counters with the fabric's workers'
// folded in (shutting the fabric down) and the lowering and TCME memo
// counters. distributed is the fabric's requested worker count.
func writeOutput(out output, f *distrib.Fabric, distributed int) error {
	stats := engine.CountersSnapshot()
	if f != nil {
		fs := f.Shutdown()
		t := fs.EngineTotals()
		stats.Hits += t.Hits
		stats.Misses += t.Misses
		stats.DiskHits += t.DiskHits
		stats.BatchCalls += t.BatchCalls
		stats.BatchedJobs += t.BatchedJobs
		out.Distribute = distributed
		out.Distrib = &fs
	}
	out.Workers = engine.Workers()
	return cli.WriteJSON(*jsonPath, out.withEngineStats(stats).withLoweringStats())
}

// withEngineStats stamps the evaluation-cache counters — memory hits,
// persistent-memo (disk) hits, exact-pricing misses, batched-kernel
// telemetry — and derives evals_per_sec from the already-set
// TotalSeconds.
func (o output) withEngineStats(s engine.Stats) output {
	o.CacheHits, o.CacheMisses, o.CacheDiskHits = s.Hits, s.Misses, s.DiskHits
	o.CacheDiskCompacted, o.CacheDiskDroppedBytes = s.DiskCompacted, s.DiskDropped
	o.BatchCalls, o.BatchedJobs = s.BatchCalls, s.BatchedJobs
	if o.TotalSeconds > 0 {
		o.EvalsPerSec = float64(s.Misses) / o.TotalSeconds
	}
	return o
}

// withLoweringStats stamps the collective lowering-cache and TCME memo
// counters.
func (o output) withLoweringStats() output {
	ls := collective.CacheStats()
	o.LoweringTemplates = ls.Templates
	o.LoweringHits = ls.Hits
	o.LoweringMisses = ls.Misses
	ts := cost.TCMEMemoStats()
	o.TCMEMemoEntries = ts.Entries
	o.TCMEMemoHits = ts.Hits
	o.TCMEMemoMisses = ts.Misses
	return o
}

// startProfiles arms the pprof flags: a CPU profile covering the whole
// run and a heap profile snapshotted at exit. The returned stop
// function must run before the process exits (it is skipped on error
// exits, which is fine — profiles of failed runs mislead anyway).
func startProfiles(cpuPath, memPath string) (func(), error) {
	stop := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memPath == "" {
		return stop, nil
	}
	cpuStop := stop
	return func() {
		cpuStop()
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tempbench: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize accurate live-heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tempbench: memprofile:", err)
		}
	}, nil
}

// applyOverrides installs the -model/-wafer/-backend experiment
// overrides (shared by the coordinator's suite path and worker mode).
func applyOverrides() error {
	if *modelNames != "" {
		if err := experiments.UseModels(*modelNames); err != nil {
			return err
		}
	}
	if *waferName != "" {
		if err := experiments.UseWafer(*waferName); err != nil {
			return err
		}
	}
	if *backend != "" {
		if err := experiments.UseBackend(*backend); err != nil {
			return err
		}
	}
	return nil
}

// workerTail is the flag tail spawned workers get after the shared
// -workers/-memo-dir, so they price with the coordinator's experiment
// overrides.
func workerTail() []string {
	var tail []string
	for _, f := range []struct{ name, value string }{
		{"-model", *modelNames}, {"-wafer", *waferName}, {"-backend", *backend},
	} {
		if f.value != "" {
			tail = append(tail, f.name, f.value)
		}
	}
	return tail
}

// backendLabel names the engine's default backend for perf records.
func backendLabel() string {
	if b := engine.DefaultBackend(); b != "" {
		return b
	}
	return "analytic"
}

func toRecord(t *experiments.Table, d time.Duration) record {
	r := record{ID: t.ID, Title: t.Title, Seconds: d.Seconds(), Rows: len(t.Rows), Backend: backendLabel()}
	if len(t.Notes) > 0 {
		r.Headline = t.Notes[0]
	}
	return r
}

// scenarioTable renders a scenario batch in the experiments table
// format, so scenario runs and paper artefacts read alike.
func scenarioTable(results []sim.ScenarioResult) *experiments.Table {
	t := &experiments.Table{
		ID:      "scenarios",
		Title:   "Declarative scenario batch",
		Headers: []string{"scenario", "system", "config", "status", "step(s)", "tput tok/s", "mem/die", "fault-tput", "repair", "solver"},
	}
	for _, r := range results {
		if r.Err != nil {
			t.AddRow(r.Name, "-", "-", "ERROR", "-", "-", "-", "-", "-", "-")
			t.AddNote("%s: %v", r.Name, r.Err)
			continue
		}
		status := "ok"
		if !r.Result.Feasible {
			status = "OOM"
		}
		ft := "-"
		if r.Faulted {
			ft = fmt.Sprintf("%.3f", r.FaultNormTput)
		}
		rp := "-"
		if r.Recovery != nil {
			rp = fmt.Sprintf("%.3f->%.3f", r.Recovery.RepriceNorm, r.Recovery.RepairedNorm)
		}
		sv := "-"
		if r.Solver != nil {
			sv = fmt.Sprintf("%s %.3fms", r.Solver.Strategy, r.Solver.FinalCost*1e3)
		}
		t.AddRow(r.Name, r.Result.System, r.Result.Config.String(), status,
			fmt.Sprintf("%.3f", r.Result.StepTime),
			fmt.Sprintf("%.1f", r.Result.ThroughputTokens),
			unit.Bytes(r.Result.Memory.Total()), ft, rp, sv)
		if r.Campaign != nil {
			worst := r.Campaign.Cells[len(r.Campaign.Cells)-1]
			t.AddNote("%s: campaign %d cells x %d trials; worst cell link %.0f%% core %.0f%%: functional %.2f, mean norm %.3f",
				r.Name, len(r.Campaign.Cells), r.Campaign.Trials,
				worst.LinkRate*100, worst.CoreRate*100, worst.FunctionalRate, worst.MeanNorm)
		}
	}
	return t
}

// runStandaloneCampaign runs a fault campaign outside the scenario
// path: baselines.Best picks the mapping for the selected model/wafer
// pair, then the campaign sweeps it over the default (-quick: reduced)
// grid and writes the survivability artifact.
func runStandaloneCampaign(fab *distrib.Fabric) error {
	name := "gpt3-6.7b"
	if *modelNames != "" {
		name = strings.TrimSpace(strings.Split(*modelNames, ",")[0])
	}
	m, err := spec.LookupModel(name)
	if err != nil {
		return err
	}
	w := hw.EvaluationWafer()
	if *waferName != "" {
		if w, err = spec.LookupWafer(*waferName); err != nil {
			return err
		}
	}
	key := ""
	if *backend != "" {
		stage, err := spec.CostOverride(*backend, *seed)
		if err != nil {
			return err
		}
		key = stage.Key
	}
	sys := baselines.TEMP()
	best, err := baselines.Best(sys, m, w)
	if err != nil {
		return err
	}
	c := fault.Campaign{
		Model: m, Wafer: w, Config: best.Config, Opts: sys.Opts,
		Backend: key, Seed: *seed, Workers: rt.Workers,
	}
	if *quick {
		c.LinkRates = []float64{0, 0.2, 0.4}
		c.CoreRates = []float64{0, 0.1}
		c.Trials = 4
	}
	var cr fault.CampaignResult
	if fab != nil {
		cr, err = c.RunOn(fab)
	} else {
		cr, err = c.Run()
	}
	if err != nil {
		return err
	}
	cli.PrintCampaign("fault campaign:", &cr)
	return cli.WriteJSON(*faultCampaign, []fault.CampaignResult{cr})
}

// runScenarios runs the -scenario file or the -scenarios directory as
// one batch, sharded across a fabric when the flags or a spec-declared
// distrib block ask for one.
func runScenarios(fo distrib.Options, tail []string) error {
	var specs []spec.ScenarioSpec
	var err error
	if *scenario != "" {
		var ss spec.ScenarioSpec
		ss, err = spec.LoadScenario(*scenario)
		specs = []spec.ScenarioSpec{ss}
	} else {
		specs, err = spec.LoadScenarioDir(*scenarios)
	}
	if err != nil {
		return err
	}
	ov := sim.Overrides{Strategy: *strategy, Budget: *budget, Seed: *seed, Workers: rt.Workers, Backend: *backend}
	// Build the override stages up front so bad -strategy/-budget/
	// -backend values fail before any worker spawns.
	override, costStage, err := ov.Stages()
	if err != nil {
		return err
	}
	cli.AttachResilience(specs, *repair, *faultCampaign != "")
	fo = cli.SpecDistrib(fo, specs)
	fab := rt.Fabric(fo, rt.MemoDir, tail...)
	defer fab.Shutdown()
	start := time.Now()
	results := sim.RunScenarioSpecsOn(fab, specs, ov)
	tab := scenarioTable(results)
	tab.Fprint(os.Stdout)
	if *faultCampaign != "" {
		var crs []fault.CampaignResult
		for _, r := range results {
			if r.Campaign != nil {
				crs = append(crs, *r.Campaign)
			}
		}
		if err := cli.WriteJSON(*faultCampaign, crs); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		rec := toRecord(tab, time.Since(start))
		switch {
		case costStage != nil && costStage.Key != "":
			rec.Backend = costStage.Key
		case costStage == nil:
			// No CLI override: label from the spec-declared cost stages,
			// but only when the whole batch shares one tier — a mixed
			// batch keeps the default label rather than misattributing
			// timings to one spec's tier.
			uniform := ""
			for i, s := range specs {
				key := ""
				if s.Cost != nil {
					key = s.Cost.Key()
				}
				if i > 0 && key != uniform {
					uniform = ""
					break
				}
				uniform = key
			}
			if uniform != "" {
				rec.Backend = uniform
			}
		}
		if override != nil {
			rec.Strategy = override.Name
		} else {
			// Label the strategy only when every solver-staged scenario
			// in the batch used the same one.
			uniform := ""
			for _, r := range results {
				if r.Solver == nil {
					continue
				}
				if uniform != "" && r.Solver.Strategy != uniform {
					uniform = ""
					break
				}
				uniform = r.Solver.Strategy
			}
			rec.Strategy = uniform
		}
		out := output{
			Backend:      rec.Backend,
			TotalSeconds: time.Since(start).Seconds(),
			Experiments:  []record{rec},
		}
		if err := writeOutput(out, fab, fo.Workers); err != nil {
			return err
		}
	}
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("scenario %s: %w", r.Name, r.Err)
		}
	}
	return nil
}

var (
	rt = cli.New("tempbench", "shard the run across N worker subprocesses (0 = in-process)",
		"backends", "models", "wafers", "strategies").ConnectFlags()
	exp           = flag.String("exp", "", "experiment id (default: run all)")
	quick         = flag.Bool("quick", false, "reduced model set for fast runs")
	list          = flag.Bool("list", false, "list experiment ids")
	jsonPath      = flag.String("json", "", "write per-experiment timings and headline metrics to this file")
	modelNames    = flag.String("model", "", "run Table-II experiments on these registered models (comma-separated)")
	waferName     = flag.String("wafer", "", "run experiments on this registered wafer")
	scenario      = flag.String("scenario", "", "run one scenario JSON file")
	scenarios     = flag.String("scenarios", "", "run every *.json scenario in a directory")
	strategy      = flag.String("strategy", "", "add/override a solver stage on scenario runs (-list-strategies)")
	budget        = flag.String("budget", "", "solver-stage budget: eval count, duration, or both (\"20000,30s\")")
	repair        = flag.Bool("repair", false, "add a degradation-aware repair stage to scenario fault stages")
	faultCampaign = flag.String("fault-campaign", "", "run a deterministic fault campaign and write survivability JSON to this file")
	seed          = flag.Int64("seed", 7, "solver-stage randomness seed")
	backend       = flag.String("backend", "", "cost backend pricing every evaluation (-list-backends); accepts name or name@seed=N")
	cpuprofile    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile    = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	listenAddr    = flag.String("listen", "", "accept -distribute workers over TCP on this address instead of spawning them")
	chaosSpec     = flag.String("chaos", "", "deterministic chaos injection on fabric links: \"seed,rate\" spreads rate across delay/drop/corrupt/truncate/stall/kill (results stay bit-identical)")
	syncMemo      = flag.Bool("sync-memo", false, "ship the warm disk-memo to attaching workers over the wire (shared-nothing workers)")
	heartbeat     = flag.Duration("heartbeat", 0, "fabric liveness ping cadence (0 = default 500ms); 3 missed beats declare a worker dead")
)

func main() {
	flag.Parse()
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	rt.Check(err)
	defer stopProfiles()
	defer rt.Close()
	// Workers apply the replicated overrides, then serve shards until
	// the coordinator says done.
	if rt.Start(applyOverrides) {
		return
	}
	tail := workerTail()
	fo := distrib.Options{Workers: rt.Distribute, Listen: *listenAddr, SyncMemo: *syncMemo, Heartbeat: *heartbeat}
	if *chaosSpec != "" {
		fo.Chaos, err = distrib.ParseChaos(*chaosSpec)
		rt.Check(err)
	}

	switch {
	case *scenario != "" || *scenarios != "":
		rt.Check(runScenarios(fo, tail))
		return
	case *faultCampaign != "":
		// Standalone campaign: the best TEMP mapping of the selected
		// model/wafer pair, swept over the default (or -quick reduced)
		// grid — the CI survivability artifact path.
		fab := rt.Fabric(fo, rt.MemoDir, tail...)
		defer fab.Shutdown()
		rt.Check(runStandaloneCampaign(fab))
		return
	}

	rt.Check(applyOverrides())
	if *list {
		for _, r := range experiments.Runners() {
			fmt.Println(r.ID)
		}
		return
	}
	fab := rt.Fabric(fo, rt.MemoDir, tail...)
	defer fab.Shutdown()
	if *exp != "" {
		start := time.Now()
		tab, err := experiments.ByIDOn(fab, *exp, *quick)
		rt.Check(err)
		tab.Fprint(os.Stdout)
		if *jsonPath != "" {
			out := output{
				Quick: *quick, Backend: backendLabel(),
				TotalSeconds: time.Since(start).Seconds(),
				Experiments:  []record{toRecord(tab, time.Since(start))},
			}
			rt.Check(writeOutput(out, fab, fo.Workers))
		}
		return
	}
	start := time.Now()
	var tabs []*experiments.Table
	var durs []time.Duration
	if fab != nil {
		tabs, durs, err = experiments.AllTimedOn(fab, *quick)
	} else {
		tabs, durs, err = experiments.AllTimed(*quick)
	}
	total := time.Since(start)
	for _, t := range tabs {
		t.Fprint(os.Stdout)
	}
	if *jsonPath != "" {
		out := output{
			Quick: *quick, Backend: backendLabel(),
			TotalSeconds: total.Seconds(),
		}
		for i, t := range tabs {
			out.Experiments = append(out.Experiments, toRecord(t, durs[i]))
		}
		rt.Check(writeOutput(out, fab, fo.Workers))
	}
	rt.Check(err)
}
