package tcme

import (
	"fmt"
	"strings"
	"testing"

	"temp/internal/collective"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/unit"
)

func topo(r, c int) *mesh.Topology { return mesh.New(r, c, hw.TableID2D()) }

func flow(t *mesh.Topology, src, dst mesh.DieID, bytes float64, payload string) mesh.Flow {
	return mesh.Flow{Src: src, Dst: dst, Bytes: bytes, Route: t.RouteXY(src, dst), Payload: payload}
}

// TestRerouteResolvesFig5Contention reproduces the Fig. 5(b) setup:
// two flows (0→2 and 1→3 in the top row) collide on link 1→2 under XY
// routing; the optimizer must find a detour and halve the bottleneck.
func TestRerouteResolvesFig5Contention(t *testing.T) {
	tp := topo(2, 4)
	d0, d1 := tp.ID(mesh.Coord{R: 0, C: 0}), tp.ID(mesh.Coord{R: 0, C: 1})
	d2, d3 := tp.ID(mesh.Coord{R: 0, C: 2}), tp.ID(mesh.Coord{R: 0, C: 3})
	p := mesh.Phase{Flows: []mesh.Flow{
		flow(tp, d0, d2, 64*unit.MB, "data1"),
		flow(tp, d1, d3, 64*unit.MB, "data2"),
	}}
	res := Optimize(tp, p, Options{})
	if res.FinalMaxLoad >= res.InitialMaxLoad {
		t.Fatalf("no improvement: %v", res)
	}
	if res.Improvement() < 1.9 {
		t.Errorf("improvement = %.2fx, want ~2x (Fig. 5(b))", res.Improvement())
	}
	if err := tp.ValidatePhase(res.Phase); err != nil {
		t.Fatal(err)
	}
	if res.ReroutedFlows == 0 {
		t.Error("expected at least one reroute")
	}
}

// TestMergeCollapsesReplicatedUnicasts: three unicasts of the same
// payload from one source merge into a multicast tree.
func TestMergeCollapsesReplicatedUnicasts(t *testing.T) {
	tp := topo(1, 4)
	p := mesh.Phase{Flows: []mesh.Flow{
		flow(tp, 0, 1, 32*unit.MB, "w0"),
		flow(tp, 0, 2, 32*unit.MB, "w0"),
		flow(tp, 0, 3, 32*unit.MB, "w0"),
	}}
	res := Optimize(tp, p, Options{})
	if res.MergedFlows < 2 {
		t.Fatalf("merged %d flows, want ≥2: %v", res.MergedFlows, res)
	}
	if res.FinalMaxLoad != 32*unit.MB {
		t.Errorf("final max load = %v, want single payload %v", res.FinalMaxLoad, 32*unit.MB)
	}
	if res.Improvement() < 2.9 {
		t.Errorf("improvement = %.2fx, want ~3x", res.Improvement())
	}
}

func TestMergeSkipsDifferentSizes(t *testing.T) {
	tp := topo(1, 4)
	p := mesh.Phase{Flows: []mesh.Flow{
		flow(tp, 0, 2, 32*unit.MB, "w0"),
		flow(tp, 0, 3, 16*unit.MB, "w0"), // same tag, different size ⇒ not the same datum
	}}
	res := Optimize(tp, p, Options{DisableReroute: true})
	if res.MergedFlows != 0 {
		t.Errorf("merged %d mismatched flows", res.MergedFlows)
	}
}

func TestAblationFlags(t *testing.T) {
	tp := topo(2, 4)
	mk := func() mesh.Phase {
		return mesh.Phase{Flows: []mesh.Flow{
			flow(tp, 0, 2, 64*unit.MB, "a"),
			flow(tp, 1, 3, 64*unit.MB, "b"),
			flow(tp, 0, 6, 64*unit.MB, "rep"),
			flow(tp, 0, 2, 64*unit.MB, "rep"),
		}}
	}
	full := Optimize(tp, mk(), Options{})
	noMerge := Optimize(tp, mk(), Options{DisableMerge: true})
	noReroute := Optimize(tp, mk(), Options{DisableReroute: true})
	if noMerge.MergedFlows != 0 {
		t.Error("merge ran despite DisableMerge")
	}
	if noReroute.ReroutedFlows != 0 {
		t.Error("reroute ran despite DisableReroute")
	}
	if full.FinalMaxLoad > noMerge.FinalMaxLoad || full.FinalMaxLoad > noReroute.FinalMaxLoad {
		t.Errorf("full optimizer (%v) worse than ablated (%v / %v)",
			full.FinalMaxLoad, noMerge.FinalMaxLoad, noReroute.FinalMaxLoad)
	}
}

func TestOptimizeNeverWorsens(t *testing.T) {
	tp := topo(4, 4)
	// A busy mixed phase: FSDP-style gathers + chained P2P.
	seqs := collective.Merge(
		collective.RingAllGather(tp, []mesh.DieID{0, 1, 5, 4}, 16*unit.MB),
		collective.P2PChain(tp, []mesh.DieID{2, 0, 8, 10}, 16*unit.MB, "tatp"),
		collective.P2PChain(tp, []mesh.DieID{3, 1, 9, 11}, 16*unit.MB, "tatp2"),
	)
	for _, ph := range seqs {
		res := Optimize(tp, ph, Options{})
		if res.FinalMaxLoad > res.InitialMaxLoad*(1+1e-9) {
			t.Fatalf("optimizer worsened phase: %v", res)
		}
		if err := tp.ValidatePhase(res.Phase); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFig11Scenario reproduces the paper's 4×4 worked example: FSDP
// all-gather groups of four adjacent dies overlapping TATP P2P chains
// that cross them. TCME must cut the bottleneck load.
func TestFig11Scenario(t *testing.T) {
	tp := topo(4, 4)
	id := func(r, c int) mesh.DieID { return tp.ID(mesh.Coord{R: r, C: c}) }
	bytes := 32 * unit.MB
	fsdpGroups := [][]mesh.DieID{
		{id(0, 1), id(0, 0), id(1, 0), id(1, 1)},
		{id(0, 3), id(0, 2), id(1, 2), id(1, 3)},
		{id(2, 1), id(2, 0), id(3, 0), id(3, 1)},
		{id(2, 3), id(2, 2), id(3, 2), id(3, 3)},
	}
	tatpChains := [][]mesh.DieID{
		{id(0, 2), id(0, 0), id(2, 0), id(2, 2)},
		{id(0, 3), id(0, 1), id(2, 1), id(2, 3)},
		{id(1, 2), id(1, 0), id(3, 0), id(3, 2)},
		{id(1, 3), id(1, 1), id(3, 1), id(3, 3)},
	}
	var seqs [][]mesh.Phase
	for _, g := range fsdpGroups {
		seqs = append(seqs, collective.RingAllGather(tp, g, bytes))
	}
	for i, c := range tatpChains {
		seqs = append(seqs, collective.P2PChain(tp, c, bytes, "tatp"+string(rune('a'+i))))
	}
	merged := collective.Merge(seqs...)
	var before, after float64
	for _, ph := range merged {
		res := Optimize(tp, ph, Options{})
		before += res.InitialMaxLoad
		after += res.FinalMaxLoad
	}
	if after >= before {
		t.Fatalf("TCME failed to improve Fig. 11 scenario: %v → %v", before, after)
	}
	if imp := before / after; imp < 1.2 {
		t.Errorf("improvement %.2fx, want ≥1.2x", imp)
	}
}

func TestOptimizeEmptyPhase(t *testing.T) {
	tp := topo(2, 2)
	res := Optimize(tp, mesh.Phase{}, Options{})
	if res.InitialMaxLoad != 0 || res.FinalMaxLoad != 0 {
		t.Errorf("empty phase loads = %v/%v", res.InitialMaxLoad, res.FinalMaxLoad)
	}
}

func TestOptimizeAllAggregates(t *testing.T) {
	tp := topo(2, 4)
	phases := []mesh.Phase{
		{Flows: []mesh.Flow{flow(tp, 0, 2, unit.MB, "a"), flow(tp, 1, 3, unit.MB, "b")}},
		{Flows: []mesh.Flow{flow(tp, 4, 6, unit.MB, "c"), flow(tp, 5, 7, unit.MB, "d")}},
	}
	out, agg := OptimizeAll(tp, phases, Options{})
	if len(out) != 2 {
		t.Fatalf("OptimizeAll returned %d phases", len(out))
	}
	if agg.FinalMaxLoad > agg.InitialMaxLoad {
		t.Error("aggregate got worse")
	}
}

func TestResultString(t *testing.T) {
	r := Result{InitialMaxLoad: 10, FinalMaxLoad: 5, Iterations: 2, MergedFlows: 1, ReroutedFlows: 3}
	s := r.String()
	if !strings.Contains(s, "2.00x") {
		t.Errorf("Result.String() = %q, want improvement factor", s)
	}
	if r.Improvement() != 2 {
		t.Errorf("Improvement = %v", r.Improvement())
	}
}

func TestImprovementZeroFinal(t *testing.T) {
	r := Result{InitialMaxLoad: 0, FinalMaxLoad: 0}
	if r.Improvement() != 1 {
		t.Errorf("degenerate improvement = %v, want 1", r.Improvement())
	}
}

// refMaxLoad is the map-keyed reference bottleneck load: the largest
// per-link load of p.Loads().
func refMaxLoad(p mesh.Phase) float64 {
	var m float64
	for _, v := range p.Loads() {
		if v > m {
			m = v
		}
	}
	return m
}

// referenceSeqs lowers seven hybrid-parallel collectives onto a 4×8
// mesh, several of them contending for the same links.
func referenceSeqs(tp *mesh.Topology) [][]mesh.Phase {
	return [][]mesh.Phase{
		collective.RingAllGather(tp, []mesh.DieID{0, 1, 9, 8}, 16*unit.MB),
		collective.RingAllReduce(tp, []mesh.DieID{2, 3, 4, 5}, 24*unit.MB),
		collective.P2PChain(tp, []mesh.DieID{16, 1, 24, 10}, 8*unit.MB, "tatp"),
		collective.Broadcast(tp, 12, []mesh.DieID{13, 20, 28, 14}, 4*unit.MB, "w"),
		collective.AllToAll(tp, []mesh.DieID{6, 7, 14, 15}, 2*unit.MB),
		// Fig. 5(b)'s colliding pair: 0→2 and 1→3 share 1→2 under XY.
		collective.P2PChain(tp, []mesh.DieID{0, 2}, 32*unit.MB, "x"),
		collective.P2PChain(tp, []mesh.DieID{1, 3}, 32*unit.MB, "y"),
	}
}

// mergedPhase is the first step of every reference collective running
// concurrently on a healthy 4×8 mesh: the phase the allocation guard
// and BenchmarkOptimize time.
func mergedPhase() (*mesh.Topology, mesh.Phase) {
	tp := topo(4, 8)
	return tp, collective.Merge(referenceSeqs(tp)...)[0]
}

// TestDenseLoadsMatchReference checks the optimizer's dense link-load
// accumulators against the independent map computation: for lowered
// hybrid-parallel collectives on a healthy 4×8 mesh and on a faulted
// clone, the reported initial and final bottleneck loads must equal
// the map reference over the input and output phases bit for bit.
func TestDenseLoadsMatchReference(t *testing.T) {
	healthy := topo(4, 8)
	faulted := healthy.Clone()
	faulted.SetLinkAlive(mesh.Link{From: 1, To: 2}, false)
	faulted.SetLinkAlive(mesh.Link{From: 9, To: 17}, false)
	for name, tp := range map[string]*mesh.Topology{"healthy": healthy, "faulted": faulted} {
		seqs := referenceSeqs(tp)
		// Each collective alone, then all of them merged concurrently.
		var phases []mesh.Phase
		for _, seq := range seqs {
			phases = append(phases, seq...)
		}
		phases = append(phases, collective.Merge(seqs...)...)
		improved := 0
		for i, ph := range phases {
			res := Optimize(tp, ph, Options{})
			if want := refMaxLoad(ph); res.InitialMaxLoad != want {
				t.Errorf("%s phase %d: InitialMaxLoad = %v, reference %v", name, i, res.InitialMaxLoad, want)
			}
			if want := refMaxLoad(res.Phase); res.FinalMaxLoad != want {
				t.Errorf("%s phase %d: FinalMaxLoad = %v, reference %v", name, i, res.FinalMaxLoad, want)
			}
			if err := tp.ValidatePhase(res.Phase); err != nil {
				t.Fatalf("%s phase %d: %v", name, i, err)
			}
			if res.FinalMaxLoad < res.InitialMaxLoad {
				improved++
			}
		}
		if improved == 0 {
			t.Errorf("%s: optimizer changed no bottleneck; the final-load check is vacuous", name)
		}
	}
}

// TestOptimizeRejectsOffMesh pins the route invariant: a route step
// between non-adjacent dies is a caller bug, and the optimizer panics
// naming the link instead of pricing it.
func TestOptimizeRejectsOffMesh(t *testing.T) {
	tp := topo(4, 8)
	p := mesh.Phase{Flows: []mesh.Flow{
		flow(tp, 0, 2, unit.MB, "ok"),
		{Src: 0, Dst: 9, Bytes: unit.MB, Route: mesh.Path{0, 9}, Payload: "bad"},
	}}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Optimize accepted an off-mesh route")
		}
		if msg, want := fmt.Sprint(r), (mesh.Link{From: 0, To: 9}).String(); !strings.Contains(msg, want) {
			t.Errorf("panic %q does not name the link %s", msg, want)
		}
	}()
	Optimize(tp, p, Options{})
}

// TestOptimizeAllocs bounds one cold Optimize on the merged reference
// phase. Candidate flips and reroutes are priced on pooled dense state,
// so what remains is the phase copy the result returns, the routes of
// accepted moves (multicast trees, flipped groups, detours) and
// RouteWeighted's returned paths — not one phase copy per candidate.
func TestOptimizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tp, ph := mergedPhase()
	Optimize(tp, ph, Options{}) // warm the dense-state pool
	const budget = 8
	avg := testing.AllocsPerRun(50, func() { Optimize(tp, ph, Options{}) })
	t.Logf("%d flows: %.0f allocs", len(ph.Flows), avg)
	if avg > budget {
		t.Errorf("cold Optimize allocates %.0f objects/op, budget %d", avg, budget)
	}
}

func BenchmarkOptimize(b *testing.B) {
	tp, ph := mergedPhase()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Optimize(tp, ph, Options{})
	}
}
