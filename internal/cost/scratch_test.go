package cost

import (
	"fmt"
	"testing"

	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
)

// TestPriceOnInterleavedWithPriceBatch alternates PriceOn on a
// degraded mutable topology with PriceBatch on the healthy interned
// one. Both run on the one pooled pricing scratch, which caches
// lowering states per topology, so every result must equal, bit for
// bit, the same pricing done on its own: a batch before the
// interleaving, and an evaluator of its own for each placement.
func TestPriceOnInterleavedWithPriceBatch(t *testing.T) {
	m := model.GPT3_6_7B()
	w := hw.EvaluationWafer()
	cfgs := append([]parallel.Config{{DP: 1, TP: 2*w.Dies() + 1, TATP: 1}}, memoConfigs...)
	degraded := mesh.FromWafer(w).Clone()
	degraded.SetLinkAlive(mesh.Link{From: 1, To: 2}, false)
	degraded.SetLinkAlive(mesh.Link{From: 9, To: 17}, false)
	degraded.SetCoreFraction(5, 0.5)
	places := make([]*parallel.Placement, len(memoConfigs))
	for i, cfg := range memoConfigs {
		p, err := parallel.Place(cfg.Normalize(), degraded)
		if err != nil {
			t.Fatalf("place %s: %v", cfg, err)
		}
		places[i] = p
	}
	for _, be := range []builtinBackend{{}, {replay: true}} {
		o := TEMPOptions()
		batch := func() ([]Breakdown, []error) {
			out, errs := make([]Breakdown, len(cfgs)), make([]error, len(cfgs))
			be.PriceBatch(m, w, cfgs, o, out, errs)
			return out, errs
		}
		priceOn := func(i int, topo *mesh.Topology) Breakdown {
			b, err := be.PriceOn(m, w, memoConfigs[i], o, topo, places[i])
			if err != nil {
				t.Fatalf("%s PriceOn %s: %v", be.Name(), memoConfigs[i], err)
			}
			return b
		}
		wantOn := make([]Breakdown, len(places))
		for i, place := range places {
			st := newEvalState(degraded, place, o.Engine == TCMEEngine)
			st.tcme = new(tcmeMemo)
			ev := &evaluator{m: m, w: w, cfg: memoConfigs[i].Normalize(), o: o,
				topo: degraded, st: st, graph: model.BlockGraph(m), replay: be.replay}
			b, err := ev.run()
			if err != nil {
				t.Fatalf("%s %s: %v", be.Name(), memoConfigs[i], err)
			}
			wantOn[i] = b
		}
		wantBatch, wantErrs := batch()
		if wantErrs[0] == nil {
			t.Fatalf("%s: unplaceable %s priced", be.Name(), cfgs[0])
		}
		differs := false
		for i := range places {
			what := fmt.Sprintf("%s %s", be.Name(), memoConfigs[i])
			requireSameBits(t, what+" PriceOn", priceOn(i, degraded), wantOn[i])
			got, errs := batch()
			requireSameBits(t, what+" PriceBatch", got, wantBatch)
			for k := range errs {
				if fmt.Sprint(errs[k]) != fmt.Sprint(wantErrs[k]) {
					t.Fatalf("%s PriceBatch err %d: %v, want %v", what, k, errs[k], wantErrs[k])
				}
			}
			differs = differs || priceOn(i, mesh.FromWafer(w)).StepTime != wantOn[i].StepTime
		}
		// Without a priced difference the check above cannot tell the
		// degraded topology from the healthy one.
		if !differs {
			t.Fatalf("%s: the degraded topology prices like the healthy one", be.Name())
		}
	}
}
