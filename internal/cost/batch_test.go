package cost_test

import (
	"reflect"
	"testing"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// batchWafers are the floorplans the batch-of-K-vs-batch-of-one equivalence is
// pinned on (the two evaluation grids of the paper).
func batchWafers() []hw.Wafer {
	return []hw.Wafer{hw.EvaluationWafer(), hw.ReferenceWafer()}
}

// batchCandidates builds a K-candidate list from a deterministic
// spread of the full configuration space, deliberately cycling so that
// K > distinct exercises the batch's normalize-and-dedupe path, and
// appending one degenerate config that fails placement so error
// propagation is covered too.
func batchCandidates(dies, k int) []parallel.Config {
	// Degrees are powers of two, so enumerate over the power-of-two
	// floor of the grid (a 6×8 wafer hosts 32-die configurations).
	pow2 := 1
	for pow2*2 <= dies {
		pow2 *= 2
	}
	space := parallel.EnumerateConfigs(pow2, true, 0)
	distinct := 8
	if distinct > len(space) {
		distinct = len(space)
	}
	stride := len(space) / distinct
	if stride == 0 {
		stride = 1
	}
	out := make([]parallel.Config, 0, k)
	for i := 0; len(out) < k; i++ {
		if i%7 == 6 {
			// A TP degree no rectangle or line of this grid can host.
			out = append(out, parallel.Config{DP: 1, TP: dies*2 + 1, TATP: 1})
			continue
		}
		out = append(out, space[(i%distinct)*stride])
	}
	return out
}

// TestPriceBatchMatchesPrice pins a batch of K to batches of one:
// Price is a batch of one on the same pooled kernel, so for every zoo
// model on both floorplans PriceBatch must reproduce per-candidate
// Price bit-identically (full Breakdown equality, matching error
// text) at K ∈ {1, 7, 64}, including duplicate candidates whose
// results the batch's dedupe copies and state the scratch carries
// from one candidate to the next.
func TestPriceBatchMatchesPrice(t *testing.T) {
	if testing.Short() {
		t.Skip("full zoo sweep is not -short")
	}
	be, err := cost.NewBackend("analytic")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := be.(cost.BatchBackend); !ok {
		t.Fatal("analytic backend does not implement BatchBackend")
	}
	o := cost.TEMPOptions()
	for _, w := range batchWafers() {
		for _, m := range model.Zoo() {
			for _, k := range []int{1, 7, 64} {
				cfgs := batchCandidates(w.Dies(), k)
				got, gotErrs := cost.PriceBatch(be, m, w, cfgs, o)
				if len(got) != k || len(gotErrs) != k {
					t.Fatalf("%s/%s K=%d: batch returned %d/%d results", w.Name, m.Name, k, len(got), len(gotErrs))
				}
				for i, cfg := range cfgs {
					want, wantErr := be.Price(m, w, cfg, o)
					if (gotErrs[i] == nil) != (wantErr == nil) {
						t.Fatalf("%s/%s K=%d cfg %s: batch err %v, scalar err %v",
							w.Name, m.Name, k, cfg, gotErrs[i], wantErr)
					}
					if wantErr != nil {
						if gotErrs[i].Error() != wantErr.Error() {
							t.Fatalf("%s/%s K=%d cfg %s: batch err %q, scalar err %q",
								w.Name, m.Name, k, cfg, gotErrs[i], wantErr)
						}
						continue
					}
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("%s/%s K=%d cfg %s: batch breakdown differs from scalar\nbatch:  %+v\nscalar: %+v",
							w.Name, m.Name, k, cfg, got[i], want)
					}
				}
			}
		}
	}
}

// TestPriceBatchMatchesPriceEngines covers the remaining engine
// dispatch arms (SMap, GMap, TCME) and the replay backend on a
// reduced set — a batch of K must match batches of one under every
// placement family, not just the default race.
func TestPriceBatchMatchesPriceEngines(t *testing.T) {
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	cfgs := batchCandidates(w.Dies(), 7)
	for _, tc := range []struct {
		name    string
		backend string
		engine  cost.Engine
	}{
		{"analytic-smap", "analytic", cost.SMap},
		{"analytic-gmap", "analytic", cost.GMap},
		{"analytic-tcme", "analytic", cost.TCMEEngine},
		{"replay-default", "replay", cost.TEMPOptions().Engine},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be, err := cost.NewBackend(tc.backend)
			if err != nil {
				t.Fatal(err)
			}
			o := cost.TEMPOptions()
			o.Engine = tc.engine
			got, gotErrs := cost.PriceBatch(be, m, w, cfgs, o)
			for i, cfg := range cfgs {
				want, wantErr := be.Price(m, w, cfg, o)
				if (gotErrs[i] == nil) != (wantErr == nil) {
					t.Fatalf("cfg %s: batch err %v, scalar err %v", cfg, gotErrs[i], wantErr)
				}
				if wantErr != nil {
					if gotErrs[i].Error() != wantErr.Error() {
						t.Fatalf("cfg %s: batch err %q, scalar err %q", cfg, gotErrs[i], wantErr)
					}
					continue
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("cfg %s: batch breakdown differs from scalar\nbatch:  %+v\nscalar: %+v",
						cfg, got[i], want)
				}
			}
		})
	}
}

// TestPriceBatchSteadyStateAllocs pins the batched hot path's
// allocation budget: once the interned topology's derived caches and
// the pooled scratch are warm, pricing a K=64 batch must not allocate
// per candidate — only the constant per-call overhead of the result
// slices and pool bookkeeping remains.
func TestPriceBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	ab, err := cost.NewBackend("analytic")
	if err != nil {
		t.Fatal(err)
	}
	be := ab.(cost.BatchBackend)
	o := cost.TEMPOptions()
	o.Engine = cost.GMap
	const k = 64
	cfgs := batchCandidates(w.Dies(), k)
	out := make([]cost.Breakdown, k)
	errs := make([]error, k)
	be.PriceBatch(m, w, cfgs, o, out, errs) // warm caches + pool
	avg := testing.AllocsPerRun(20, func() {
		be.PriceBatch(m, w, cfgs, o, out, errs)
	})
	// Budget: well under one allocation per candidate; the only
	// allowed allocations are constant per batch.
	if avg > 8 {
		t.Errorf("steady-state PriceBatch allocates %.1f objects per %d-candidate batch, budget 8", avg, k)
	}
}
