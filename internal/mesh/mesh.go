// Package mesh implements the wafer's 2D-mesh interconnect at flow
// granularity: dies are nodes, adjacent dies are joined by a pair of
// directed links, and communication is expressed as phases of flows
// routed over link paths. The package provides the contention model
// (per-link serialization of flow bytes), several routing policies,
// fault masks for dies and links, and multicast-tree construction —
// the substrate both the TCME optimizer (§VI-B) and the wafer cost
// model (§VII-A) are built on.
package mesh

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"temp/internal/hw"
)

// DieID identifies a die by its row-major index on the wafer grid.
type DieID int

// Coord is a (row, column) grid position.
type Coord struct {
	R, C int
}

// Link is a directed edge between adjacent dies.
type Link struct {
	From, To DieID
}

// String implements fmt.Stringer.
func (l Link) String() string { return fmt.Sprintf("%d→%d", l.From, l.To) }

// Topology is a rows×cols 2D mesh with optional fault masks. The
// zero value is not usable; construct with New (mutable) or FromWafer
// (interned, immutable — see Intern).
type Topology struct {
	rows, cols int
	link       hw.D2D

	dieAlive []bool
	// linkAlive is indexed by canonical link ID (see LinkID).
	linkAlive []bool
	// coreFrac[i] is the fraction of die i's compute cores that are
	// functional (1.0 = healthy); used by the fault-tolerance study.
	coreFrac []float64

	// deadDies/deadLinks count current faults so healthy() is O(1) on
	// the routing hot path.
	deadDies, deadLinks int

	// links is the canonical dense link index: every directed link of
	// the pristine mesh, sorted ascending by (From, To), so that
	// scanning IDs 0..len(links)-1 visits links in exactly the order
	// the contention model's deterministic bottleneck scan requires.
	// slot is the O(1) reverse lookup: slot[die*4+dir] is the ID of
	// die's outgoing link in direction dir (up, left, right, down), or
	// -1 when the mesh has no such link. Both are immutable and shared
	// between a topology and its clones.
	links []Link
	slot  []int32
	// enum is the historical allLinks enumeration order, kept so that
	// Links() (and everything seeded off its iteration order, like
	// fault injection) is unchanged by the dense index.
	enum []Link

	// frozen marks an interned topology: mutating an interned topology
	// would corrupt every sharer, so the Set* methods panic. Frozen
	// topologies are what the derived-structure caches key on.
	frozen bool
	// derived caches immutable structures computed from a frozen
	// topology (lowered collectives, stream orchestrations, placement
	// state). Only frozen topologies populate it: a mutable topology's
	// cache would go stale on the next Set* call.
	derived sync.Map
	// aliveDies caches AliveDies on frozen topologies (immutable fault
	// state), keeping the per-candidate pricing path allocation-free.
	// Clone leaves it unset, so mutable copies always recompute.
	aliveDies atomic.Pointer[[]DieID]
}

// New builds a healthy rows×cols mesh with the given link parameters.
func New(rows, cols int, link hw.D2D) *Topology {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mesh: invalid grid %dx%d", rows, cols))
	}
	t := &Topology{
		rows:     rows,
		cols:     cols,
		link:     link,
		dieAlive: make([]bool, rows*cols),
		coreFrac: make([]float64, rows*cols),
	}
	t.buildLinkIndex()
	t.linkAlive = make([]bool, len(t.links))
	for i := range t.dieAlive {
		t.dieAlive[i] = true
		t.coreFrac[i] = 1.0
	}
	for i := range t.linkAlive {
		t.linkAlive[i] = true
	}
	return t
}

// linkDirs enumerates a die's outgoing directions in ascending
// destination order: up (To=From-cols), left, right, down. With the
// canonical index built From-major over these directions, link IDs
// ascend exactly in (From, To) order.
const numDirs = 4

// buildLinkIndex constructs the canonical sorted link list, the
// reverse-lookup slot table and the historical enumeration order.
func (t *Topology) buildLinkIndex() {
	n := t.rows * t.cols
	t.slot = make([]int32, n*numDirs)
	for i := range t.slot {
		t.slot[i] = -1
	}
	for from := 0; from < n; from++ {
		c := t.CoordOf(DieID(from))
		cand := [numDirs]Coord{
			{c.R - 1, c.C}, // up
			{c.R, c.C - 1}, // left
			{c.R, c.C + 1}, // right
			{c.R + 1, c.C}, // down
		}
		for dir, nc := range cand {
			if !t.InBounds(nc) {
				continue
			}
			t.slot[from*numDirs+dir] = int32(len(t.links))
			t.links = append(t.links, Link{DieID(from), t.ID(nc)})
		}
	}
	t.enum = t.allLinks()
}

// FromWafer returns the interned immutable mesh of a wafer
// configuration: repeated calls with the same grid and link parameters
// share one cached topology (see Intern). Callers that need to mutate
// it (fault injection) must Clone first.
func FromWafer(w hw.Wafer) *Topology { return Shared(w.Rows, w.Cols, w.Link) }

// NumLinks returns the number of directed links of the pristine mesh —
// the size of the canonical link-ID space.
func (t *Topology) NumLinks() int { return len(t.links) }

// LinkByID returns the link with the given canonical ID. IDs ascend in
// (From, To) order, so scanning 0..NumLinks()-1 visits links in the
// deterministic sorted order the bottleneck tie-break depends on.
func (t *Topology) LinkByID(id int) Link { return t.links[id] }

// LinkID returns the canonical dense ID of a directed mesh link, or -1
// when the endpoints are not mesh-adjacent. Every route step must be a
// mesh link: the timing kernels panic on a -1 rather than price it.
func (t *Topology) LinkID(l Link) int {
	from := int(l.From)
	if from < 0 || from >= t.rows*t.cols {
		return -1
	}
	var dir int
	switch d := int(l.To) - from; {
	case d == -t.cols:
		dir = 0
	case d == -1 && t.cols > 1:
		dir = 1
	case d == 1 && t.cols > 1:
		dir = 2
	case d == t.cols:
		dir = 3
	default:
		return -1
	}
	return int(t.slot[from*numDirs+dir])
}

// Rows returns the number of die rows.
func (t *Topology) Rows() int { return t.rows }

// Cols returns the number of die columns.
func (t *Topology) Cols() int { return t.cols }

// Dies returns the total die count (including failed dies).
func (t *Topology) Dies() int { return t.rows * t.cols }

// LinkParams returns the D2D parameters of every mesh link.
func (t *Topology) LinkParams() hw.D2D { return t.link }

// ID converts a coordinate to a die ID.
func (t *Topology) ID(c Coord) DieID { return DieID(c.R*t.cols + c.C) }

// CoordOf converts a die ID to its coordinate.
func (t *Topology) CoordOf(d DieID) Coord {
	return Coord{R: int(d) / t.cols, C: int(d) % t.cols}
}

// InBounds reports whether c lies on the grid.
func (t *Topology) InBounds(c Coord) bool {
	return c.R >= 0 && c.R < t.rows && c.C >= 0 && c.C < t.cols
}

// Adjacent reports whether two dies are mesh neighbors.
func (t *Topology) Adjacent(a, b DieID) bool {
	ca, cb := t.CoordOf(a), t.CoordOf(b)
	dr, dc := ca.R-cb.R, ca.C-cb.C
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr+dc == 1
}

// Neighbors returns the alive mesh neighbors of d reachable over
// alive links.
func (t *Topology) Neighbors(d DieID) []DieID {
	c := t.CoordOf(d)
	cand := []Coord{{c.R - 1, c.C}, {c.R + 1, c.C}, {c.R, c.C - 1}, {c.R, c.C + 1}}
	var out []DieID
	for _, nc := range cand {
		if !t.InBounds(nc) {
			continue
		}
		n := t.ID(nc)
		if t.DieAlive(n) && t.LinkAlive(Link{d, n}) {
			out = append(out, n)
		}
	}
	return out
}

// allLinks enumerates every directed link of the pristine mesh.
func (t *Topology) allLinks() []Link {
	var out []Link
	for r := 0; r < t.rows; r++ {
		for c := 0; c < t.cols; c++ {
			a := t.ID(Coord{r, c})
			if c+1 < t.cols {
				b := t.ID(Coord{r, c + 1})
				out = append(out, Link{a, b}, Link{b, a})
			}
			if r+1 < t.rows {
				b := t.ID(Coord{r + 1, c})
				out = append(out, Link{a, b}, Link{b, a})
			}
		}
	}
	return out
}

// Links returns all alive directed links in deterministic order.
func (t *Topology) Links() []Link {
	var out []Link
	for _, l := range t.enum {
		if t.linkAlive[t.LinkID(l)] {
			out = append(out, l)
		}
	}
	return out
}

// TotalLinks returns the number of directed links in the healthy mesh.
func (t *Topology) TotalLinks() int { return len(t.links) }

// DieAlive reports whether die d is functional.
func (t *Topology) DieAlive(d DieID) bool {
	return int(d) >= 0 && int(d) < len(t.dieAlive) && t.dieAlive[d]
}

// mutable panics when the topology is interned: a frozen topology is
// shared by every caller that looked it up, so in-place faults would
// corrupt them all. Clone first.
func (t *Topology) mutable() {
	if t.frozen {
		panic("mesh: mutating an interned topology; Clone it first")
	}
}

// SetDieAlive marks die d alive or failed.
func (t *Topology) SetDieAlive(d DieID, alive bool) {
	t.mutable()
	if t.dieAlive[d] != alive {
		if alive {
			t.deadDies--
		} else {
			t.deadDies++
		}
	}
	t.dieAlive[d] = alive
}

// LinkAlive reports whether directed link l is functional.
func (t *Topology) LinkAlive(l Link) bool {
	id := t.LinkID(l)
	return id >= 0 && t.linkAlive[id]
}

// SetLinkAlive marks the directed link (and by convention its
// reverse) alive or failed; D2D links fail as a bundle.
func (t *Topology) SetLinkAlive(l Link, alive bool) {
	t.mutable()
	t.setLinkAlive(t.LinkID(l), alive)
	t.setLinkAlive(t.LinkID(Link{l.To, l.From}), alive)
}

func (t *Topology) setLinkAlive(id int, alive bool) {
	if id < 0 {
		return
	}
	if t.linkAlive[id] != alive {
		if alive {
			t.deadLinks--
		} else {
			t.deadLinks++
		}
	}
	t.linkAlive[id] = alive
}

// CoreFraction returns the functional-core fraction of die d.
func (t *Topology) CoreFraction(d DieID) float64 { return t.coreFrac[d] }

// SetCoreFraction sets the functional-core fraction of die d.
func (t *Topology) SetCoreFraction(d DieID, f float64) {
	t.mutable()
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	t.coreFrac[d] = f
}

// AliveDies returns the IDs of functional dies in ascending order.
// The slice is cached on frozen topologies and must not be mutated.
func (t *Topology) AliveDies() []DieID {
	if t.frozen {
		if v := t.aliveDies.Load(); v != nil {
			return *v
		}
	}
	out := make([]DieID, 0, len(t.dieAlive)-t.deadDies)
	for i := range t.dieAlive {
		if t.dieAlive[i] {
			out = append(out, DieID(i))
		}
	}
	if t.frozen {
		t.aliveDies.Store(&out)
	}
	return out
}

// HopDistance returns the Manhattan distance between two dies — the
// minimum hop count on a healthy mesh.
func (t *Topology) HopDistance(a, b DieID) int {
	ca, cb := t.CoordOf(a), t.CoordOf(b)
	dr, dc := ca.R-cb.R, ca.C-cb.C
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// Path is a sequence of die IDs from source to destination where
// consecutive entries are mesh neighbors.
type Path []DieID

// Hops returns the number of links traversed.
func (p Path) Hops() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Links returns the directed links of the path.
func (p Path) Links() []Link {
	if len(p) < 2 {
		return nil
	}
	out := make([]Link, 0, len(p)-1)
	for i := 0; i+1 < len(p); i++ {
		out = append(out, Link{p[i], p[i+1]})
	}
	return out
}

// Valid reports whether the path is connected over alive links of t.
func (p Path) Valid(t *Topology) bool {
	if len(p) == 0 {
		return false
	}
	for i := 0; i+1 < len(p); i++ {
		if !t.Adjacent(p[i], p[i+1]) || !t.LinkAlive(Link{p[i], p[i+1]}) {
			return false
		}
	}
	return true
}

// RouteXY returns the dimension-ordered X-then-Y route (column first,
// then row) between two dies, ignoring faults. It is the
// contention-agnostic default the paper's phase-1 initialization uses.
func (t *Topology) RouteXY(src, dst DieID) Path {
	cs, cd := t.CoordOf(src), t.CoordOf(dst)
	p := Path{src}
	cur := cs
	for cur.C != cd.C {
		if cur.C < cd.C {
			cur.C++
		} else {
			cur.C--
		}
		p = append(p, t.ID(cur))
	}
	for cur.R != cd.R {
		if cur.R < cd.R {
			cur.R++
		} else {
			cur.R--
		}
		p = append(p, t.ID(cur))
	}
	return p
}

// RouteYX returns the Y-then-X route, the natural detour alternative
// to RouteXY in a 2D mesh.
func (t *Topology) RouteYX(src, dst DieID) Path {
	cs, cd := t.CoordOf(src), t.CoordOf(dst)
	p := Path{src}
	cur := cs
	for cur.R != cd.R {
		if cur.R < cd.R {
			cur.R++
		} else {
			cur.R--
		}
		p = append(p, t.ID(cur))
	}
	for cur.C != cd.C {
		if cur.C < cd.C {
			cur.C++
		} else {
			cur.C--
		}
		p = append(p, t.ID(cur))
	}
	return p
}

// routeScratch pools the Dijkstra working arrays of RouteWeighted so
// the router only allocates its returned path.
type routeScratch struct {
	dist []float64
	prev []DieID
	done []bool
	rev  []DieID
}

var routePool = sync.Pool{New: func() any { return new(routeScratch) }}

func (s *routeScratch) grab(n int) {
	const inf = 1e300
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.prev = make([]DieID, n)
		s.done = make([]bool, n)
	}
	s.dist = s.dist[:n]
	s.prev = s.prev[:n]
	s.done = s.done[:n]
	for i := range s.dist {
		s.dist[i] = inf
		s.prev[i] = -1
		s.done[i] = false
	}
	s.rev = s.rev[:0]
}

// RouteWeighted returns a minimum-cost path from src to dst where the
// cost of traversing the link with canonical ID id is 1 + weight[id]
// (a nil weight means unit cost everywhere). Dead links and dies are
// skipped, so it doubles as the fault-aware router. Returns nil when
// dst is unreachable.
func (t *Topology) RouteWeighted(src, dst DieID, weight []float64) Path {
	if !t.DieAlive(src) || !t.DieAlive(dst) {
		return nil
	}
	if src == dst {
		return Path{src}
	}
	const inf = 1e300
	n := t.Dies()
	s := routePool.Get().(*routeScratch)
	s.grab(n)
	dist, prev, done := s.dist, s.prev, s.done
	dist[src] = 0
	for {
		// Linear scan extract-min: grids are small (≤ a few
		// thousand dies), simplicity wins over a heap.
		best, bestD := DieID(-1), inf
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < bestD {
				best, bestD = DieID(i), dist[i]
			}
		}
		if best < 0 {
			routePool.Put(s)
			return nil
		}
		if best == dst {
			break
		}
		done[best] = true
		// Neighbor relaxation in the historical Neighbors order (up,
		// down, left, right) — prev ties go to the first relaxer, so
		// the visit order is part of the deterministic contract.
		c := t.CoordOf(best)
		cand := [numDirs]Coord{{c.R - 1, c.C}, {c.R + 1, c.C}, {c.R, c.C - 1}, {c.R, c.C + 1}}
		for _, nc := range cand {
			if !t.InBounds(nc) {
				continue
			}
			nb := t.ID(nc)
			id := t.LinkID(Link{best, nb})
			if !t.DieAlive(nb) || id < 0 || !t.linkAlive[id] {
				continue
			}
			w := 1.0
			if weight != nil {
				w += weight[id]
			}
			if nd := dist[best] + w; nd < dist[nb] {
				dist[nb] = nd
				prev[nb] = best
			}
		}
	}
	rev := s.rev
	for cur := dst; cur >= 0; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	s.rev = rev
	if rev[len(rev)-1] != src {
		routePool.Put(s)
		return nil
	}
	p := make(Path, len(rev))
	for i := range rev {
		p[i] = rev[len(rev)-1-i]
	}
	routePool.Put(s)
	return p
}

// Route returns the fault-aware shortest path (unit weights).
func (t *Topology) Route(src, dst DieID) Path {
	if t.healthy() {
		return t.RouteXY(src, dst)
	}
	return t.RouteWeighted(src, dst, nil)
}

func (t *Topology) healthy() bool { return t.deadDies == 0 && t.deadLinks == 0 }

// aliveLinks returns the number of functional directed links.
func (t *Topology) aliveLinks() int { return len(t.links) - t.deadLinks }

// Connected reports whether all alive dies form one connected
// component over alive links. The BFS runs over dense slices with
// neighbor coordinates computed inline (no per-die Neighbors slice),
// keeping fault localization down to two bounded allocations.
func (t *Topology) Connected() bool {
	n := t.Dies()
	alive := 0
	first := -1
	for i := 0; i < n; i++ {
		if t.dieAlive[i] {
			alive++
			if first < 0 {
				first = i
			}
		}
	}
	if alive == 0 {
		return false
	}
	seen := make([]bool, n)
	stack := make([]DieID, 0, n)
	seen[first] = true
	stack = append(stack, DieID(first))
	reached := 1
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := t.CoordOf(d)
		cand := [4]Coord{{c.R - 1, c.C}, {c.R + 1, c.C}, {c.R, c.C - 1}, {c.R, c.C + 1}}
		for _, nc := range cand {
			if !t.InBounds(nc) {
				continue
			}
			nb := t.ID(nc)
			if seen[nb] || !t.dieAlive[nb] || !t.LinkAlive(Link{d, nb}) {
				continue
			}
			seen[nb] = true
			reached++
			stack = append(stack, nb)
		}
	}
	return reached == alive
}

// Rect is an axis-aligned block of dies [R0,R1]×[C0,C1], inclusive.
type Rect struct {
	R0, C0, R1, C1 int
}

// Dies returns the die IDs of the rectangle in row-major order.
func (r Rect) DiesOn(t *Topology) []DieID {
	var out []DieID
	for row := r.R0; row <= r.R1; row++ {
		for col := r.C0; col <= r.C1; col++ {
			out = append(out, t.ID(Coord{row, col}))
		}
	}
	return out
}

// Height returns the number of rows covered.
func (r Rect) Height() int { return r.R1 - r.R0 + 1 }

// Width returns the number of columns covered.
func (r Rect) Width() int { return r.C1 - r.C0 + 1 }

// Area returns the number of dies covered.
func (r Rect) Area() int { return r.Height() * r.Width() }

// HasRing reports whether the rectangle admits a Hamiltonian cycle of
// mesh links: both sides ≥ 2 and an even area.
func (r Rect) HasRing() bool {
	return r.Height() >= 2 && r.Width() >= 2 && r.Area()%2 == 0
}

// SnakePath returns a Hamiltonian path through the rectangle
// (boustrophedon row order). Every rectangle has one.
func (r Rect) SnakePath(t *Topology) Path {
	var p Path
	for i, row := 0, r.R0; row <= r.R1; i, row = i+1, row+1 {
		if i%2 == 0 {
			for col := r.C0; col <= r.C1; col++ {
				p = append(p, t.ID(Coord{row, col}))
			}
		} else {
			for col := r.C1; col >= r.C0; col-- {
				p = append(p, t.ID(Coord{row, col}))
			}
		}
	}
	return p
}

// RingPath returns a Hamiltonian cycle through the rectangle when one
// exists (HasRing). The returned path lists each die once; the cycle
// closes from the last entry back to the first over a mesh link.
func (r Rect) RingPath(t *Topology) (Path, bool) {
	if !r.HasRing() {
		return nil, false
	}
	// Walk the leftmost column downwards, then snake the remaining
	// columns upwards in 2-row bands back to the start. Classic
	// construction; requires width ≥ 2 and even area.
	var p Path
	if r.Height()%2 == 0 {
		// Down the left edge, snake back up through cols C0+1..C1.
		for row := r.R0; row <= r.R1; row++ {
			p = append(p, t.ID(Coord{row, r.C0}))
		}
		for i, row := 0, r.R1; row >= r.R0; i, row = i+1, row-1 {
			if i%2 == 0 {
				for col := r.C0 + 1; col <= r.C1; col++ {
					p = append(p, t.ID(Coord{row, col}))
				}
			} else {
				for col := r.C1; col >= r.C0+1; col-- {
					p = append(p, t.ID(Coord{row, col}))
				}
			}
		}
	} else {
		// Odd height forces even width: rotate the construction.
		for col := r.C0; col <= r.C1; col++ {
			p = append(p, t.ID(Coord{r.R0, col}))
		}
		for i, col := 0, r.C1; col >= r.C0; i, col = i+1, col-1 {
			if i%2 == 0 {
				for row := r.R0 + 1; row <= r.R1; row++ {
					p = append(p, t.ID(Coord{row, col}))
				}
			} else {
				for row := r.R1; row >= r.R0+1; row-- {
					p = append(p, t.ID(Coord{row, col}))
				}
			}
		}
	}
	return p, true
}

// SortDies sorts a die slice ascending, in place, and returns it.
func SortDies(ds []DieID) []DieID {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}
