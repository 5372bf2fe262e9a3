package cost

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/tcme"
)

// sameBits reports whether a and b are equal with every float compared
// by bit pattern (so -0 ≠ +0 and a NaN equals the same NaN).
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	default:
		panic(fmt.Sprintf("sameBits: unhandled kind %s", a.Kind()))
	}
}

func requireSameBits(t *testing.T, what string, got, want any) {
	t.Helper()
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("%s differs:\n got %+v\nwant %+v", what, got, want)
	}
}

var freshFamilies atomic.Int64

// freshWafer returns the evaluation wafer under a link reach no other
// test uses. The cost model never reads MaxReachMM, so prices are
// unchanged, but the wafer interns to a topology of its own whose
// derived caches — and TCME memo — start empty.
func freshWafer() hw.Wafer {
	w := hw.EvaluationWafer()
	w.Link.MaxReachMM += 1e3 + float64(freshFamilies.Add(1))
	return w
}

// faultedTopo interns a copy of w's mesh with two failed link bundles.
func faultedTopo(w hw.Wafer) *mesh.Topology {
	tp := mesh.FromWafer(w).Clone()
	tp.SetLinkAlive(mesh.Link{From: 1, To: 2}, false)
	tp.SetLinkAlive(mesh.Link{From: 9, To: 17}, false)
	return tp.Intern()
}

// memoConfigs covers every lowered TCME term: TATP streams with TP,
// SP and DP collectives; a stream-free DP×TP mix; and an FSDP×TATP
// hybrid, whose forward stream stays materialized while its backward
// FSDP collectives go through the memo.
var memoConfigs = []parallel.Config{
	{DP: 2, TP: 2, SP: 2, TATP: 4},
	{DP: 8, TP: 4},
	{DP: 4, TATP: 8, FSDP: true},
}

// priceOn evaluates cfg on topo through its memoized rectangular
// evalState, as evaluate does for one placement family.
func priceOn(t *testing.T, topo *mesh.Topology, w hw.Wafer, cfg parallel.Config, o Options, replay bool) Breakdown {
	t.Helper()
	cfg = cfg.Normalize()
	st, err := stateFor(topo, cfg, false, o.Engine == TCMEEngine)
	if err != nil {
		t.Fatalf("%s: %v", cfg, err)
	}
	m := model.GPT3_6_7B()
	s := batchPool.Get().(*batchScratch)
	defer batchPool.Put(s)
	b, err := s.evaluateState(m, w, cfg, o, topo, st, model.BlockGraph(m), replay)
	if err != nil {
		t.Fatalf("%s: %v", cfg, err)
	}
	return b
}

// TestTCMEMemoMissHitIdentical prices each configuration twice — the
// first call misses the memo, the second replays it — on a healthy and
// an interned faulted topology, for the TEMP engine on the analytic
// and the replay tier. The two Breakdowns, TCME aggregate included,
// must match bit for bit. Options are priced in the order fig16 uses
// them: defaults first, then each ablation, which must miss rather
// than replay the default's entries.
func TestTCMEMemoMissHitIdentical(t *testing.T) {
	for _, replay := range []bool{false, true} {
		// The memo key leaves out the tier (the optimizer's answer does
		// not depend on it), so each tier gets a family of its own.
		w := freshWafer()
		for _, name := range []string{"healthy", "faulted"} {
			topo := mesh.FromWafer(w)
			if name == "faulted" {
				topo = faultedTopo(w)
			}
			rerouted := 0
			for _, ablate := range []tcme.Options{{}, {DisableMerge: true}, {DisableReroute: true}} {
				o := TEMPOptions()
				o.TCME = ablate
				for _, cfg := range memoConfigs {
					what := fmt.Sprintf("%s replay=%v %s %+v", name, replay, cfg, ablate)
					s0 := TCMEMemoStats()
					miss := priceOn(t, topo, w, cfg, o, replay)
					s1 := TCMEMemoStats()
					hit := priceOn(t, topo, w, cfg, o, replay)
					s2 := TCMEMemoStats()
					if s1.Misses == s0.Misses {
						t.Fatalf("%s: first pricing did not miss the memo", what)
					}
					if s2.Misses != s1.Misses || s2.Hits == s1.Hits {
						t.Fatalf("%s: second pricing missed (%d misses, %d hits)", what,
							s2.Misses-s1.Misses, s2.Hits-s1.Hits)
					}
					requireSameBits(t, what, hit, miss)
					switch {
					case ablate.DisableMerge && miss.TCME.MergedFlows != 0:
						t.Fatalf("%s: merged %d flows with merging disabled", what, miss.TCME.MergedFlows)
					case ablate.DisableReroute && miss.TCME.ReroutedFlows != 0:
						t.Fatalf("%s: rerouted %d flows with rerouting disabled", what, miss.TCME.ReroutedFlows)
					case ablate == tcme.Options{}:
						rerouted += miss.TCME.ReroutedFlows
					}
				}
			}
			// No lowered collective repeats a payload from one source, so
			// merging never fires here; the miss counters above are what
			// show the DisableMerge run kept apart from the defaults.
			if rerouted == 0 {
				t.Fatalf("%s replay=%v: defaults rerouted no flow; the DisableReroute check is vacuous", name, replay)
			}
		}
	}
}

// TestTCMEMemoMatchesOptimizeAll checks the replay arithmetic against
// the path it replaces: every lowered sequence the evaluator prices —
// the merged TATP stream at each weighted op's sub-tensor size and each
// strategy's merged ring collectives — must return the same time, link
// bytes and TCME aggregate as materializing it and running OptimizeAll
// then SeqTime, on a memo miss and on a memo hit.
func TestTCMEMemoMatchesOptimizeAll(t *testing.T) {
	w := freshWafer()
	m := model.GPT3_6_7B()
	for name, topo := range map[string]*mesh.Topology{"healthy": mesh.FromWafer(w), "faulted": faultedTopo(w)} {
		for _, replay := range []bool{false, true} {
			for _, cfg := range memoConfigs {
				cfg = cfg.Normalize()
				o := TEMPOptions()
				st, err := stateFor(topo, cfg, false, o.Engine == TCMEEngine)
				if err != nil {
					t.Fatalf("%s: %v", cfg, err)
				}
				for i, seq := range loweredSeqs(topo, st, m, cfg, o) {
					what := fmt.Sprintf("%s replay=%v %s seq %d", name, replay, cfg, i)
					ref := &evaluator{o: o, topo: topo, st: st, replay: replay}
					want := ref.evalPhases(mesh.MaterializeSeq(seq))
					for _, pass := range []string{"miss", "hit"} {
						ev := &evaluator{o: o, topo: topo, st: st, replay: replay}
						got := ev.evalLowered(seq)
						requireSameBits(t, what+" "+pass+" time", got, want)
						requireSameBits(t, what+" "+pass+" link bytes", ev.linkBytes, ref.linkBytes)
						requireSameBits(t, what+" "+pass+" TCME", ev.tcmeAgg, ref.tcmeAgg)
					}
				}
			}
		}
	}
}

// loweredSeqs builds the lowered sequences evaluate prices for cfg:
// the stream sequence (forward and doubled backward sizes) and one
// sequence per strategy and ring-collective kind.
func loweredSeqs(topo *mesh.Topology, st *evalState, m model.Config, cfg parallel.Config, o Options) [][]mesh.LoweredSeq {
	var out [][]mesh.LoweredSeq
	if len(st.orchs) > 0 {
		for _, scale := range []float64{1, 2} {
			var seq []mesh.LoweredSeq
			for _, op := range model.BlockGraph(m).Ops {
				if op.HasWeight() {
					sub, _ := streamSubTensorBytes(op, m, cfg, o)
					seq = append(seq, mesh.LoweredSeq{Tmpl: st.streamTemplate(), Bytes: sub * scale})
				}
			}
			out = append(out, seq)
		}
	}
	for _, s := range parallel.Strategies() {
		if len(st.orders[s]) == 0 {
			continue
		}
		for _, kind := range []byte{collAllReduce, collAllGather, collReduceScatter} {
			if ct := st.collTemplateFor(topo, s, kind); ct.tmpl != nil {
				out = append(out, []mesh.LoweredSeq{{Tmpl: ct.tmpl, Bytes: 3.7e6}})
			}
		}
	}
	return out
}

// TestTCMEMemoConcurrentFreshFamily has 8 goroutines price the same
// fresh family at once, racing on every memo miss, and requires each
// to see exactly what a serial run on another fresh family saw, and
// the race to count as many memo misses as the serial run: one per
// key. Run under -race it also checks the memo's locking.
func TestTCMEMemoConcurrentFreshFamily(t *testing.T) {
	m := model.GPT3_6_7B()
	type job struct {
		cfg parallel.Config
		o   Options
	}
	var jobs []job
	for _, ablate := range []tcme.Options{{}, {DisableMerge: true}} {
		for _, cfg := range memoConfigs {
			o := TEMPOptions()
			o.TCME = ablate
			jobs = append(jobs, job{cfg, o})
		}
	}
	price := func(w hw.Wafer, j job) Breakdown {
		b, err := Evaluate(m, w, j.cfg, j.o)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	serialWafer := freshWafer()
	want := make([]Breakdown, len(jobs))
	s0 := TCMEMemoStats()
	for i, j := range jobs {
		want[i] = price(serialWafer, j)
	}
	s1 := TCMEMemoStats()
	w := freshWafer()
	const workers = 8
	got := make([][]Breakdown, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]Breakdown, len(jobs))
			for i := range jobs {
				// Stagger the start so goroutines collide on different keys.
				k := (i + g) % len(jobs)
				got[g][k] = price(w, jobs[k])
			}
		}(g)
	}
	wg.Wait()
	s2 := TCMEMemoStats()
	for g := range got {
		requireSameBits(t, fmt.Sprintf("goroutine %d", g), got[g], want)
	}
	if serial, raced := s1.Misses-s0.Misses, s2.Misses-s1.Misses; raced != serial {
		t.Errorf("racing goroutines counted %d memo misses, the serial run %d", raced, serial)
	}
}
