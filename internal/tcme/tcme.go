// Package tcme implements the Traffic-Conscious Mapping Engine's
// communication optimizer (§VI-B, Fig. 11): given a phase of
// concurrent flows produced by hybrid parallel strategies, it
// iteratively (1) identifies the most congested link, (2) collects
// the flows crossing it, (3) merges redundant same-payload flows into
// multicast trees, (4) reroutes the rest over idle links via
// load-weighted shortest paths, and (5) re-evaluates until the
// bottleneck load stops improving or an iteration cap is reached.
package tcme

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"temp/internal/mesh"
)

// denseState is the optimizer's per-Optimize scratch over the
// topology's canonical link index: flat load/count accumulators and a
// hot-link bitmap replace the per-call map allocations of the
// historical implementation. Decisions are bit-identical — the dense
// bottleneck scan walks link IDs in exactly the sorted (From, To)
// order the map version sorted into, and per-accumulator float
// summation order (flow order, then route order) is unchanged. Every
// route step must be a mesh link: accumulate panics on one that is not,
// and once a phase has accumulated, its route steps index the
// accumulators directly.
//
// The remaining fields pool the working sets of the moves, so a cold
// Optimize allocates little beyond the phase it returns: accepted
// flips, RouteWeighted detours and multicast trees.
type denseState struct {
	t       *mesh.Topology
	loads   []float64
	cnt     []int32
	touched []int32
	hot     []bool
	// weight is reroute's per-link detour cost, indexed by link ID;
	// zero outside the links it is filling.
	weight []float64
	// hotIdx backs hotFlowIdx's result.
	hotIdx []int
	// rev is the arena reverseGroups writes one candidate group's
	// reversed routes into; flow flip[k]'s route is
	// rev[revOff[k]:revOff[k+1]].
	rev    []mesh.DieID
	revOff []int32
	// tag, byTag and runs group flows by collective-instance tag for
	// reverseGroups.
	tag   []string
	byTag []int32
	runs  [][2]int32
	// groupAt, groups, merging, removed and dsts are mergeDuplicates'
	// grouping scratch.
	groupAt map[mergeKey]int32
	groups  []mergeGroup
	merging []int32
	removed []bool
	dsts    []mesh.DieID
}

var densePool = sync.Pool{New: func() any {
	return &denseState{groupAt: make(map[mergeKey]int32)}
}}

// newDense returns pooled scratch for t.
func newDense(t *mesh.Topology) *denseState {
	d := densePool.Get().(*denseState)
	d.t = t
	n := t.NumLinks()
	if cap(d.loads) < n {
		d.loads = make([]float64, n)
		d.cnt = make([]int32, n)
		d.hot = make([]bool, n)
		d.weight = make([]float64, n)
	}
	d.loads = d.loads[:n]
	d.cnt = d.cnt[:n]
	d.hot = d.hot[:n]
	d.weight = d.weight[:n]
	d.touched = d.touched[:0]
	return d
}

func (d *denseState) release() {
	d.reset()
	densePool.Put(d)
}

// reset clears only the touched entries.
func (d *denseState) reset() {
	for _, id := range d.touched {
		d.loads[id] = 0
		d.cnt[id] = 0
	}
	d.touched = d.touched[:0]
}

// accumulate recomputes the per-link loads of p, panicking on a route
// step that is not a mesh link. The optimizer's own moves (multicast
// trees, reversed routes, RouteWeighted detours) only ever produce mesh
// links, so the IDs stay valid throughout an Optimize run.
//
// flip lists flows, in ascending index order, whose routes are taken
// from the reversal arena instead of the phase: the loads of a
// candidate flip accumulate in the same flow and route order as they
// would on a copy of the phase with those routes replaced.
func (d *denseState) accumulate(p mesh.Phase, flip []int32) {
	d.reset()
	k := 0
	for i := range p.Flows {
		f := &p.Flows[i]
		r := f.Route
		if k < len(flip) && int(flip[k]) == i {
			r = d.rev[d.revOff[k]:d.revOff[k+1]]
			k++
		}
		for j := 0; j+1 < len(r); j++ {
			l := mesh.Link{From: r[j], To: r[j+1]}
			id := d.t.LinkID(l)
			if id < 0 {
				panic(fmt.Sprintf("tcme: flow %d (%s) route step %v is not a mesh link", i, f.Payload, l))
			}
			if d.cnt[id] == 0 {
				d.touched = append(d.touched, int32(id))
			}
			d.cnt[id]++
			d.loads[id] += f.Bytes
		}
	}
}

// maxLoad returns the most loaded link of p and its load, ties broken
// by ascending (From, To) — which is ascending link ID.
func (d *denseState) maxLoad(p mesh.Phase) (mesh.Link, float64) {
	d.accumulate(p, nil)
	var (
		best     mesh.Link
		bestLoad float64
		found    bool
	)
	for id := range d.loads {
		if d.cnt[id] == 0 {
			continue
		}
		if !found || d.loads[id] > bestLoad {
			best, bestLoad, found = d.t.LinkByID(id), d.loads[id], true
		}
	}
	return best, bestLoad
}

// potential computes p's potential on the dense accumulators, with the
// flows in flip rerouted as accumulate describes.
func (d *denseState) potential(p mesh.Phase, flip []int32) potential {
	d.accumulate(p, flip)
	var pot potential
	for _, id := range d.touched {
		if d.loads[id] > pot.max {
			pot.max = d.loads[id]
		}
	}
	if pot.max == 0 {
		return pot
	}
	thresh := pot.max * (1 - 1e-9)
	for _, id := range d.touched {
		if d.loads[id] >= thresh {
			pot.count++
		}
	}
	return pot
}

// Options tunes the optimizer; the zero value enables everything with
// the default iteration cap.
type Options struct {
	// MaxIter caps the optimization loop; 0 means DefaultMaxIter.
	MaxIter int
	// DisableMerge turns off multicast merging (ablation).
	DisableMerge bool
	// DisableReroute turns off congestion-aware rerouting (ablation).
	DisableReroute bool
}

// DefaultMaxIter is the MAX_ITER bound of the paper's Fig. 11(d)
// pseudo-code.
const DefaultMaxIter = 16

// Result reports one optimized phase and what the optimizer did.
type Result struct {
	Phase          mesh.Phase
	InitialMaxLoad float64
	FinalMaxLoad   float64
	Iterations     int
	MergedFlows    int
	ReroutedFlows  int
}

// Improvement returns the bottleneck-load reduction factor (≥ 1).
func (r Result) Improvement() float64 {
	if r.FinalMaxLoad <= 0 {
		return 1
	}
	return r.InitialMaxLoad / r.FinalMaxLoad
}

// Optimize runs the five-phase workflow on one communication phase.
// Following the Fig. 11(d) pseudo-code, the loop continues through
// load plateaus (a move that relieves the current bottleneck link
// without lowering the global max still makes progress — another link
// merely becomes the next bottleneck) until no move applies or
// MAX_ITER is hit.
func Optimize(t *mesh.Topology, p mesh.Phase, opts Options) Result {
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = DefaultMaxIter
	}
	cur := clonePhase(p)
	res := Result{}
	d := newDense(t)
	mcl, load := d.maxLoad(cur)
	res.InitialMaxLoad = load

	// load always holds cur's bottleneck: an iteration without moves
	// leaves cur untouched, so it is also the final load.
	for iter := 0; iter < maxIter && load > 0; iter++ {
		res.Iterations++
		moves := 0
		hot := d.hotFlowIdx(cur, mcl)

		if !opts.DisableMerge {
			merged := mergeDuplicates(t, &cur, hot, d)
			res.MergedFlows += merged
			moves += merged
			if merged > 0 {
				mcl, _ = d.maxLoad(cur)
				hot = d.hotFlowIdx(cur, mcl)
			}
		}
		if !opts.DisableReroute {
			rev := reverseGroups(t, &cur, d)
			res.ReroutedFlows += rev
			moves += rev
			if rev > 0 {
				mcl, _ = d.maxLoad(cur)
				hot = d.hotFlowIdx(cur, mcl)
			}
			rr := reroute(t, &cur, hot, d)
			res.ReroutedFlows += rr
			moves += rr
		}
		if moves == 0 {
			break
		}
		mcl, load = d.maxLoad(cur)
	}
	res.Phase = cur
	res.FinalMaxLoad = load
	d.release()
	return res
}

// OptimizeAll applies Optimize to every phase of a sequence,
// accumulating statistics.
func OptimizeAll(t *mesh.Topology, phases []mesh.Phase, opts Options) ([]mesh.Phase, Result) {
	out := make([]mesh.Phase, len(phases))
	var agg Result
	for i, p := range phases {
		r := Optimize(t, p, opts)
		out[i] = r.Phase
		agg.InitialMaxLoad += r.InitialMaxLoad
		agg.FinalMaxLoad += r.FinalMaxLoad
		agg.Iterations += r.Iterations
		agg.MergedFlows += r.MergedFlows
		agg.ReroutedFlows += r.ReroutedFlows
	}
	return out, agg
}

func clonePhase(p mesh.Phase) mesh.Phase {
	out := mesh.Phase{Label: p.Label, Flows: make([]mesh.Flow, len(p.Flows))}
	copy(out.Flows, p.Flows)
	return out
}

// hotFlowIdx returns the indices of flows crossing the given link,
// largest first (deterministic). The slice is d's scratch, valid until
// the next call.
func (d *denseState) hotFlowIdx(p mesh.Phase, l mesh.Link) []int {
	idx := d.hotIdx[:0]
	for i := range p.Flows {
		r := p.Flows[i].Route
		for j := 0; j+1 < len(r); j++ {
			if (mesh.Link{From: r[j], To: r[j+1]}) == l {
				idx = append(idx, i)
				break
			}
		}
	}
	slices.SortFunc(idx, func(a, b int) int {
		if fa, fb := p.Flows[a].Bytes, p.Flows[b].Bytes; fa != fb {
			if fa > fb {
				return -1
			}
			return 1
		}
		return a - b
	})
	d.hotIdx = idx
	return idx
}

// mergeKey identifies a datum: one payload sent from one source.
type mergeKey struct {
	src     mesh.DieID
	payload string
}

// mergeGroup is the flows carrying one datum.
type mergeGroup struct {
	key  mergeKey
	flow []int
}

// mergeDuplicates finds groups of hot flows that carry the same
// payload from the same source to different destinations and replaces
// each group (across the whole phase) with a multicast tree. Returns
// the number of unicast flows eliminated.
func mergeDuplicates(t *mesh.Topology, p *mesh.Phase, hot []int, d *denseState) int {
	clear(d.groupAt)
	d.groups = d.groups[:0]
	for _, i := range hot {
		f := &p.Flows[i]
		if f.Payload == "" {
			continue
		}
		k := mergeKey{f.Src, f.Payload}
		g, ok := d.groupAt[k]
		if !ok {
			g = d.newGroup(k)
		}
		d.groups[g].flow = append(d.groups[g].flow, i)
	}
	// Extend each group with same-key flows elsewhere in the phase.
	for i := range p.Flows {
		f := &p.Flows[i]
		if f.Payload == "" {
			continue
		}
		if g, ok := d.groupAt[mergeKey{f.Src, f.Payload}]; ok && !slices.Contains(d.groups[g].flow, i) {
			d.groups[g].flow = append(d.groups[g].flow, i)
		}
	}
	d.merging = d.merging[:0]
	for g := range d.groups {
		if len(d.groups[g].flow) > 1 {
			d.merging = append(d.merging, int32(g))
		}
	}
	if len(d.merging) == 0 {
		return 0
	}
	slices.SortFunc(d.merging, func(a, b int32) int {
		ka, kb := &d.groups[a].key, &d.groups[b].key
		if ka.src != kb.src {
			return int(ka.src) - int(kb.src)
		}
		return strings.Compare(ka.payload, kb.payload)
	})
	d.removed = slices.Grow(d.removed[:0], len(p.Flows))[:len(p.Flows)]
	clear(d.removed)
	var added []mesh.Flow
	merged := 0
	for _, gi := range d.merging {
		g := &d.groups[gi]
		bytes := p.Flows[g.flow[0]].Bytes
		d.dsts = d.dsts[:0]
		uniform := true
		for _, i := range g.flow {
			if p.Flows[i].Bytes != bytes {
				uniform = false
				break
			}
			d.dsts = append(d.dsts, p.Flows[i].Dst)
		}
		if !uniform {
			continue // different sizes ⇒ not the same datum
		}
		tree := mesh.MulticastTree(t, g.key.src, d.dsts, bytes, g.key.payload)
		if len(tree) == 0 {
			continue
		}
		for _, i := range g.flow {
			d.removed[i] = true
		}
		added = append(added, tree...)
		merged += len(g.flow) - 1
	}
	if merged == 0 {
		return 0
	}
	var flows []mesh.Flow
	for i, f := range p.Flows {
		if !d.removed[i] {
			flows = append(flows, f)
		}
	}
	p.Flows = append(flows, added...)
	return merged
}

// newGroup appends an empty group for k, reusing a previous call's
// flow slice when one is there.
func (d *denseState) newGroup(k mergeKey) int32 {
	g := len(d.groups)
	if g < cap(d.groups) {
		d.groups = d.groups[:g+1]
		d.groups[g] = mergeGroup{k, d.groups[g].flow[:0]}
	} else {
		d.groups = append(d.groups, mergeGroup{key: k})
	}
	d.groupAt[k] = int32(g)
	return int32(g)
}

// potential is the lexicographic objective the optimizer drives
// down: first the bottleneck load, then the number of links sitting
// at (within a small tolerance of) that load. Requiring every
// accepted move to strictly decrease it makes the loop monotone —
// no oscillation between symmetric equal-cost routings.
type potential struct {
	max   float64
	count int
}

// less reports whether a is strictly better (lower) than b.
func (a potential) less(b potential) bool {
	if a.max < b.max*(1-1e-12) {
		return true
	}
	if a.max > b.max*(1+1e-12) {
		return false
	}
	return a.count < b.count
}

// groupKey extracts the collective-instance tag from a payload: the
// prefix up to the first '.' (collective.Merge prepends "s<i>." per
// concurrent sequence). Flows sharing a key belong to one logical
// ring step or chain whose orientation can be flipped as a unit.
func groupKey(payload string) string {
	for i := 0; i < len(payload); i++ {
		if payload[i] == '.' {
			return payload[:i]
		}
	}
	return payload
}

// reverseGroups implements the pattern-level reroute of Fig. 11: when
// a ring step or P2P chain collides with another group on a
// bottleneck-level link, flipping the whole pattern's orientation
// (D3→D2→… becomes D2→D3→…) moves it onto the opposite-direction
// links. Candidate groups are those crossing any link at the current
// maximum load (symmetric scenarios have several co-equal bottleneck
// links and the profitable flip may sit on any of them), tried in
// ascending tag order. A flip is accepted when it strictly decreases
// the phase potential. Returns the number of flipped flows.
//
// Candidates are priced without copying the phase: the group's
// reversed routes go to d's arena and accumulate reads them in place
// of the originals. Only an accepted flip allocates its routes; the
// originals are never reversed in place, because they share the
// lowering template's backing array.
func reverseGroups(t *mesh.Topology, p *mesh.Phase, d *denseState) int {
	cur := d.potential(*p, nil)
	if cur.max <= 0 {
		return 0
	}
	thresh := cur.max * (1 - 1e-9)
	// Mark bottleneck-level links in the hot bitmap; d.loads still holds
	// p's accumulation from potential above.
	for _, id := range d.touched {
		if d.loads[id] >= thresh {
			d.hot[id] = true
		}
	}
	// Group flows by tag: flow indices sorted by (tag, index) make each
	// group one run, runs in ascending tag order.
	d.tag = d.tag[:0]
	d.byTag = d.byTag[:0]
	for i := range p.Flows {
		k := groupKey(p.Flows[i].Payload)
		d.tag = append(d.tag, k)
		if k != "" {
			d.byTag = append(d.byTag, int32(i))
		}
	}
	slices.SortFunc(d.byTag, func(a, b int32) int {
		if c := strings.Compare(d.tag[a], d.tag[b]); c != 0 {
			return c
		}
		return int(a - b)
	})
	// Keep the runs crossing any hot link.
	d.runs = d.runs[:0]
	for lo := 0; lo < len(d.byTag); {
		hi := lo + 1
		for hi < len(d.byTag) && d.tag[d.byTag[hi]] == d.tag[d.byTag[lo]] {
			hi++
		}
		for _, i := range d.byTag[lo:hi] {
			if d.crossesHot(p.Flows[i].Route) {
				d.runs = append(d.runs, [2]int32{int32(lo), int32(hi)})
				break
			}
		}
		lo = hi
	}
	// Clear the bitmap before candidate evaluation re-accumulates (and
	// re-populates touched with) candidate state.
	for _, id := range d.touched {
		d.hot[id] = false
	}
	for _, run := range d.runs {
		idx := d.byTag[run[0]:run[1]]
		if !d.reverseRoutes(t, *p, idx) {
			continue
		}
		if d.potential(*p, idx).less(cur) {
			routes := slices.Clone(d.rev)
			for k, i := range idx {
				f := &p.Flows[i]
				lo, hi := d.revOff[k], d.revOff[k+1]
				f.Src, f.Dst = f.Dst, f.Src
				f.Route = routes[lo:hi:hi]
			}
			// One flip per iteration: re-evaluate from the new
			// bottleneck next round.
			return len(idx)
		}
	}
	return 0
}

// crossesHot reports whether route r crosses a link marked hot.
func (d *denseState) crossesHot(r mesh.Path) bool {
	for j := 0; j+1 < len(r); j++ {
		if d.hot[d.t.LinkID(mesh.Link{From: r[j], To: r[j+1]})] {
			return true
		}
	}
	return false
}

// reverseRoutes writes the reversed routes of flows idx into the
// arena, reporting false when one of them is not a valid path on t
// (a dead link in the opposite direction).
func (d *denseState) reverseRoutes(t *mesh.Topology, p mesh.Phase, idx []int32) bool {
	d.rev = d.rev[:0]
	d.revOff = append(d.revOff[:0], 0)
	for _, i := range idx {
		r := p.Flows[i].Route
		start := len(d.rev)
		for j := len(r) - 1; j >= 0; j-- {
			d.rev = append(d.rev, r[j])
		}
		if !mesh.Path(d.rev[start:]).Valid(t) {
			return false
		}
		d.revOff = append(d.revOff, int32(len(d.rev)))
	}
	return true
}

// reroute tries to move hot flows onto less-loaded paths (the
// CanReroute step of Fig. 11(d)). A reroute is accepted only when it
// strictly decreases the phase potential, which keeps the loop
// monotone. Returns the number of accepted reroutes.
func reroute(t *mesh.Topology, p *mesh.Phase, hot []int, d *denseState) int {
	count := 0
	for _, i := range hot {
		f := p.Flows[i]
		if f.Src == f.Dst || f.Route.Hops() == 0 {
			continue
		}
		cur := d.potential(*p, nil)
		// Remove this flow's own contribution so the weight reflects
		// the load it would join.
		for j := 0; j+1 < len(f.Route); j++ {
			d.loads[t.LinkID(mesh.Link{From: f.Route[j], To: f.Route[j+1]})] -= f.Bytes
		}
		var norm float64
		for _, id := range d.touched {
			if d.loads[id] > norm {
				norm = d.loads[id]
			}
		}
		if norm <= 0 {
			norm = 1
		}
		// Untouched links carry no load, so their weight stays 0.
		for _, id := range d.touched {
			d.weight[id] = 4 * d.loads[id] / norm
		}
		alt := t.RouteWeighted(f.Src, f.Dst, d.weight)
		for _, id := range d.touched {
			d.weight[id] = 0
		}
		if alt == nil || samePath(alt, f.Route) {
			continue
		}
		old := f.Route
		p.Flows[i].Route = alt
		if d.potential(*p, nil).less(cur) {
			count++
		} else {
			p.Flows[i].Route = old
		}
	}
	return count
}

func samePath(a, b mesh.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String summarises a result for logs.
func (r Result) String() string {
	return fmt.Sprintf("tcme{max %.3g→%.3g (%.2fx), %d iters, %d merged, %d rerouted}",
		r.InitialMaxLoad, r.FinalMaxLoad, r.Improvement(), r.Iterations, r.MergedFlows, r.ReroutedFlows)
}
