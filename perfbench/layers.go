package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"temp/internal/baselines"
	"temp/internal/collective"
	"temp/internal/cost"
	"temp/internal/engine"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/nn"
	"temp/internal/parallel"
	"temp/internal/spec"
	"temp/internal/surrogate"
	"temp/internal/tcme"
)

// Layer replays: the workload's own inputs re-run through the public
// entry point of a layer that a top-level call hides, under a span
// tree rooted at "replay". Each records a per-call figure in
// rep.Layers.

// pricingInput is one (model, wafer, candidate configs) triple a
// workload priced; chosen is the configuration it settled on.
type pricingInput struct {
	m      model.Config
	w      hw.Wafer
	cfgs   []parallel.Config
	chosen parallel.Config
}

// timed runs f n times under one span and returns the total time.
func timed(tr *tracer, name string, root, n int, f func(i int)) time.Duration {
	id := tr.begin(name, root)
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(start)
	tr.end(id)
	return d
}

// perCall is d/n in the given unit.
func perCall(d time.Duration, n int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(max(n, 1))
}

// replayPricing replays the cost stack on the inputs: cost.Evaluate
// per mapping engine, cost.PriceBatch per candidate, mesh SeqTime on
// the chosen placement's lowered collectives, tcme.OptimizeAll on the
// same phases, and a memoized engine hit.
func replayPricing(tr *tracer, rep *report, ins []pricingInput) error {
	if len(ins) == 0 {
		return fmt.Errorf("no pricing inputs to replay")
	}
	root := tr.begin("replay.pricing", -1)
	defer tr.end(root)
	be, err := cost.NewBackend("analytic")
	if err != nil {
		return err
	}
	const seqReps, hitReps = 200, 2000
	var evalT [3]time.Duration
	var batchT, seqT, tcmeT, hitT time.Duration
	var cands, lowered int
	var allocs uint64
	var ms runtime.MemStats
	for _, in := range ins {
		cands += len(in.cfgs)
		for e, eng := range []cost.Engine{cost.TCMEEngine, cost.GMap, cost.SMap} {
			o := cost.TEMPOptions()
			o.Engine = eng
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			evalT[e] += timed(tr, "replay.cost.evaluate_"+eng.String(), root, len(in.cfgs), func(i int) {
				_, _ = cost.Evaluate(in.m, in.w, in.cfgs[i], o) // unplaceable candidates cost time too
			})
			if eng == cost.TCMEEngine {
				runtime.ReadMemStats(&ms)
				allocs += ms.Mallocs - before
			}
		}
		batchT += timed(tr, "replay.cost.price_batch", root, 1, func(int) {
			cost.PriceBatch(be, in.m, in.w, in.cfgs, cost.TEMPOptions())
		})

		topo := mesh.FromWafer(in.w)
		pl, err := parallel.Place(in.chosen, topo)
		if err != nil {
			return fmt.Errorf("place %v on %s: %w", in.chosen, in.w.Name, err)
		}
		var phases []mesh.Phase
		for _, g := range pl.AllGroups() {
			if g.Size() > 1 {
				phases = append(phases, collective.RingAllReduce(topo, g.Dies, in.m.ParamBytes()/float64(g.Size()))...)
			}
		}
		if len(phases) > 0 {
			seqT += timed(tr, "replay.mesh.seqtime", root, seqReps, func(int) { topo.SeqTime(phases) })
			tcmeT += timed(tr, "replay.tcme.optimize_all", root, 1, func(int) { tcme.OptimizeAll(topo, phases, tcme.Options{}) })
			lowered++
		}

		job := engine.Job{Model: in.m, Wafer: in.w, Config: in.chosen, Opts: cost.TEMPOptions()}
		if _, err := engine.EvaluateJob(job); err != nil {
			return fmt.Errorf("engine job: %w", err)
		}
		hitT += timed(tr, "replay.engine.memo_hit", root, hitReps, func(int) { _, _ = engine.EvaluateJob(job) })
	}
	rep.Layers["cost.evaluate_tcme_us"] = perCall(evalT[0], cands, time.Microsecond)
	rep.Layers["cost.evaluate_gmap_us"] = perCall(evalT[1], cands, time.Microsecond)
	rep.Layers["cost.evaluate_smap_us"] = perCall(evalT[2], cands, time.Microsecond)
	rep.Layers["cost.evaluate_tcme_allocs"] = float64(allocs) / float64(cands)
	rep.Layers["cost.price_batch_us"] = perCall(batchT, cands, time.Microsecond)
	rep.Layers["mesh.seqtime_ns"] = perCall(seqT, lowered*seqReps, time.Nanosecond)
	rep.Layers["tcme.optimize_us"] = perCall(tcmeT, lowered, time.Microsecond)
	rep.Layers["engine.memo_hit_ns"] = perCall(hitT, len(ins)*hitReps, time.Nanosecond)
	return nil
}

// tempSpace is the TEMP system's configuration space on a wafer — the
// candidates baselines.Best prices for a sweep scenario.
func tempSpace(w hw.Wafer) []parallel.Config { return baselines.TEMP().Space(w.Dies()) }

// replayResolve resolves the workload's scenario specs through
// spec.Resolve, 20 times over, and records the per-spec time.
func replayResolve(tr *tracer, rep *report, specs []spec.ScenarioSpec) ([]spec.Scenario, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("no scenario specs to resolve")
	}
	const reps = 20
	root := tr.begin("replay.spec", -1)
	defer tr.end(root)
	var scs []spec.Scenario
	var err error
	d := timed(tr, "replay.spec.resolve", root, reps, func(int) {
		scs = scs[:0]
		for _, ss := range specs {
			sc, e := ss.Resolve()
			if e != nil {
				err = fmt.Errorf("resolve %s: %w", ss.Name, e)
			}
			scs = append(scs, sc)
		}
	})
	rep.Layers["spec.resolve_us"] = perCall(d, reps*len(specs), time.Microsecond)
	return scs, err
}

// solverLayers folds the per-strategy search times, taken from the
// program's own SolverOutcome.Elapsed, into rep.Layers.
func solverLayers(tr *tracer, rep *report, evals int) {
	var all time.Duration
	for _, s := range []string{"ga", "anneal", "hillclimb", "dp"} {
		d, n := tr.total("solver." + s)
		if n > 0 {
			rep.Layers["solver."+s+"_ms"] = perCall(d, n, time.Millisecond)
		}
		all += d
	}
	if all > 0 {
		rep.Layers["solver.evals_per_s"] = float64(evals) / all.Seconds()
	}
}

// replaySurrogate replays fig21's surrogate training on its quick
// inputs: one category's DNN fit (surrogate.TrainDNN) and the
// per-minibatch Adam step it repeats (nn.MLP.TrainBatch).
func replaySurrogate(tr *tracer, rep *report) {
	root := tr.begin("replay.surrogate", -1)
	defer tr.end(root)
	w := hw.EvaluationWafer()
	rng := rand.New(rand.NewSource(100 + int64(surrogate.Compute)))
	train := surrogate.Generate(surrogate.Compute, 600, w, rng)
	d := timed(tr, "replay.surrogate.train_dnn", root, 1, func(int) { surrogate.TrainDNN(train, rng) })
	rep.Layers["surrogate.train_ms"] = perCall(d, 1, time.Millisecond)

	xs := make([][]float64, len(train))
	ys := make([][]float64, len(train))
	for i, s := range train {
		x := make([]float64, len(s.Features))
		for j, v := range s.Features {
			x[j] = math.Log1p(v)
		}
		xs[i], ys[i] = x, []float64{math.Log(s.TargetMS)}
	}
	xs = nn.FitStandardizer(xs).ApplyAll(xs)
	mlp := nn.NewMLP([]int{len(xs[0]), 48, 48, 1}, rng)
	const batch, steps = 32, 400
	d = timed(tr, "replay.nn.train_batch", root, steps, func(i int) {
		at := (i * batch) % (len(xs) - batch)
		mlp.TrainBatch(xs[at:at+batch], ys[at:at+batch], nn.AdamConfig{LR: 3e-3})
	})
	rep.Layers["nn.train_batch_us"] = perCall(d, steps, time.Microsecond)
}

// counters snapshots the engine and lowering-cache counters around a
// measured pass.
type counters struct {
	e engine.Stats
	l collective.LoweringStats
}

func snapshot() counters { return counters{engine.CountersSnapshot(), collective.CacheStats()} }

// counterLayers records the counter deltas from c to now. The batch
// counters of concurrent sweeps are not exact run to run; they are
// reported as measured.
func counterLayers(rep *report, c, now counters) {
	hits := now.e.Hits - c.e.Hits + now.e.DiskHits - c.e.DiskHits
	misses := now.e.Misses - c.e.Misses
	rep.Layers["engine.misses"] = float64(misses)
	if n := hits + misses; n > 0 {
		rep.Layers["engine.hit_ratio"] = float64(hits) / float64(n)
	}
	if calls := now.e.BatchCalls - c.e.BatchCalls; calls > 0 {
		rep.Layers["engine.batch_jobs_per_call"] = float64(now.e.BatchedJobs-c.e.BatchedJobs) / float64(calls)
	}
	if jobs := now.e.CoalescedJobs - c.e.CoalescedJobs; jobs > 0 {
		rep.Layers["engine.coalesce_shared_ratio"] = float64(now.e.CoalesceShared-c.e.CoalesceShared) / float64(jobs)
	}
	lh, lm := now.l.Hits-c.l.Hits, now.l.Misses-c.l.Misses
	if lh+lm > 0 {
		rep.Layers["collective.lowering_hit_ratio"] = float64(lh) / float64(lh+lm)
	}
}
