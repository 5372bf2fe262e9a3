package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"

	"temp/internal/hw"
)

func grid(r, c int) *Topology { return New(r, c, hw.TableID2D()) }

func TestIDCoordRoundTrip(t *testing.T) {
	tp := grid(4, 8)
	for i := 0; i < tp.Dies(); i++ {
		d := DieID(i)
		if got := tp.ID(tp.CoordOf(d)); got != d {
			t.Fatalf("round trip failed for die %d: got %d", d, got)
		}
	}
}

func TestAdjacency(t *testing.T) {
	tp := grid(4, 8)
	tests := []struct {
		a, b DieID
		want bool
	}{
		{0, 1, true},   // horizontal neighbor
		{0, 8, true},   // vertical neighbor
		{0, 9, false},  // diagonal — no diagonal links on an interposer
		{7, 8, false},  // row wrap is not adjacency
		{0, 2, false},  // distance 2
		{31, 30, true}, // last row
	}
	for _, tc := range tests {
		if got := tp.Adjacent(tc.a, tc.b); got != tc.want {
			t.Errorf("Adjacent(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestNeighborsCorners(t *testing.T) {
	tp := grid(4, 8)
	if n := tp.Neighbors(0); len(n) != 2 {
		t.Errorf("corner die has %d neighbors, want 2", len(n))
	}
	if n := tp.Neighbors(1); len(n) != 3 {
		t.Errorf("edge die has %d neighbors, want 3", len(n))
	}
	if n := tp.Neighbors(9); len(n) != 4 {
		t.Errorf("interior die has %d neighbors, want 4", len(n))
	}
}

func TestLinkCount(t *testing.T) {
	tp := grid(4, 8)
	// Directed links of an RxC mesh: 2*(R*(C-1) + C*(R-1)).
	want := 2 * (4*7 + 8*3)
	if got := tp.TotalLinks(); got != want {
		t.Errorf("TotalLinks = %d, want %d", got, want)
	}
	if got := len(tp.Links()); got != want {
		t.Errorf("alive Links = %d, want %d", got, want)
	}
}

func TestRouteXYAndYX(t *testing.T) {
	tp := grid(4, 8)
	src, dst := tp.ID(Coord{0, 0}), tp.ID(Coord{3, 5})
	xy := tp.RouteXY(src, dst)
	yx := tp.RouteYX(src, dst)
	wantHops := tp.HopDistance(src, dst)
	if xy.Hops() != wantHops || yx.Hops() != wantHops {
		t.Fatalf("route hops = %d/%d, want %d", xy.Hops(), yx.Hops(), wantHops)
	}
	if !xy.Valid(tp) || !yx.Valid(tp) {
		t.Fatal("routes not valid")
	}
	if xy[0] != src || xy[len(xy)-1] != dst {
		t.Fatal("XY endpoints wrong")
	}
	// XY goes along the row first; YX along the column first.
	if tp.CoordOf(xy[1]).R != 0 {
		t.Error("XY route should move along columns first")
	}
	if tp.CoordOf(yx[1]).C != 0 {
		t.Error("YX route should move along rows first")
	}
}

func TestRouteSelfIsSingleton(t *testing.T) {
	tp := grid(4, 8)
	p := tp.RouteXY(5, 5)
	if len(p) != 1 || p.Hops() != 0 {
		t.Errorf("self route = %v", p)
	}
}

// Property: for random die pairs, XY routes are always valid and
// minimal on a healthy mesh.
func TestRouteXYMinimalProperty(t *testing.T) {
	tp := grid(6, 9)
	f := func(a, b uint8) bool {
		src := DieID(int(a) % tp.Dies())
		dst := DieID(int(b) % tp.Dies())
		p := tp.RouteXY(src, dst)
		return p.Valid(tp) && p.Hops() == tp.HopDistance(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRouteWeightedAvoidsLoadedLink(t *testing.T) {
	tp := grid(4, 4)
	src, dst := DieID(0), DieID(3)
	hot := Link{1, 2} // on the XY route 0→1→2→3
	weight := make([]float64, tp.NumLinks())
	weight[tp.LinkID(hot)] = 100
	p := tp.RouteWeighted(src, dst, weight)
	if !p.Valid(tp) {
		t.Fatal("weighted route invalid")
	}
	for _, l := range p.Links() {
		if l == hot {
			t.Fatalf("weighted route %v crosses the penalized link", p)
		}
	}
}

func TestRouteAroundDeadLink(t *testing.T) {
	tp := grid(4, 4)
	tp.SetLinkAlive(Link{1, 2}, false)
	p := tp.Route(0, 3)
	if p == nil || !p.Valid(tp) {
		t.Fatalf("fault-aware route failed: %v", p)
	}
	for _, l := range p.Links() {
		if l == (Link{1, 2}) || l == (Link{2, 1}) {
			t.Fatal("route crosses dead link")
		}
	}
}

func TestRouteUnreachable(t *testing.T) {
	tp := grid(1, 3) // a line: kill the middle link to disconnect
	tp.SetLinkAlive(Link{0, 1}, false)
	if p := tp.Route(0, 2); p != nil {
		t.Fatalf("expected nil route, got %v", p)
	}
}

func TestDieFaultMasks(t *testing.T) {
	tp := grid(4, 4)
	tp.SetDieAlive(5, false)
	if tp.DieAlive(5) {
		t.Fatal("die 5 should be dead")
	}
	if got := len(tp.AliveDies()); got != 15 {
		t.Errorf("alive dies = %d, want 15", got)
	}
	for _, n := range tp.Neighbors(1) {
		if n == 5 {
			t.Fatal("dead die listed as neighbor")
		}
	}
	if p := tp.Route(4, 6); p != nil {
		for _, d := range p {
			if d == 5 {
				t.Fatal("route passes through dead die")
			}
		}
	}
}

func TestConnected(t *testing.T) {
	tp := grid(2, 2)
	if !tp.Connected() {
		t.Fatal("healthy mesh should be connected")
	}
	// Cut die 0 off completely.
	tp.SetLinkAlive(Link{0, 1}, false)
	tp.SetLinkAlive(Link{0, 2}, false)
	if tp.Connected() {
		t.Fatal("mesh should be disconnected")
	}
	// Killing the isolated die restores connectivity of the rest.
	tp.SetDieAlive(0, false)
	if !tp.Connected() {
		t.Fatal("remaining dies should be connected")
	}
}

func TestCoreFractionClamped(t *testing.T) {
	tp := grid(2, 2)
	tp.SetCoreFraction(0, 1.5)
	if tp.CoreFraction(0) != 1 {
		t.Error("core fraction should clamp to 1")
	}
	tp.SetCoreFraction(0, -0.5)
	if tp.CoreFraction(0) != 0 {
		t.Error("core fraction should clamp to 0")
	}
	if tp.CoreFraction(1) != 1 {
		t.Error("default core fraction should be 1")
	}
}

func TestRectRing(t *testing.T) {
	tp := grid(6, 9)
	tests := []struct {
		r    Rect
		ring bool
	}{
		{Rect{0, 0, 1, 3}, true},  // 2×4
		{Rect{0, 0, 0, 3}, false}, // 1×4 line: no cycle
		{Rect{0, 0, 2, 2}, false}, // 3×3 odd area: no cycle
		{Rect{0, 0, 2, 3}, true},  // 3×4
		{Rect{0, 0, 3, 3}, true},  // 4×4
	}
	for _, tc := range tests {
		if got := tc.r.HasRing(); got != tc.ring {
			t.Errorf("HasRing(%+v) = %v, want %v", tc.r, got, tc.ring)
		}
		if !tc.ring {
			continue
		}
		p, ok := tc.r.RingPath(tp)
		if !ok {
			t.Fatalf("RingPath(%+v) failed", tc.r)
		}
		if len(p) != tc.r.Area() {
			t.Fatalf("ring visits %d dies, want %d", len(p), tc.r.Area())
		}
		seen := map[DieID]bool{}
		for i, d := range p {
			if seen[d] {
				t.Fatalf("ring revisits die %d", d)
			}
			seen[d] = true
			next := p[(i+1)%len(p)]
			if !tp.Adjacent(d, next) {
				t.Fatalf("ring step %d→%d not adjacent (rect %+v, path %v)", d, next, tc.r, p)
			}
		}
	}
}

func TestRectSnakePath(t *testing.T) {
	tp := grid(6, 9)
	rects := []Rect{{0, 0, 0, 5}, {1, 2, 3, 4}, {0, 0, 5, 8}, {2, 2, 2, 2}}
	for _, r := range rects {
		p := r.SnakePath(tp)
		if len(p) != r.Area() {
			t.Fatalf("snake visits %d, want %d", len(p), r.Area())
		}
		seen := map[DieID]bool{}
		for i, d := range p {
			if seen[d] {
				t.Fatalf("snake revisits die %d", d)
			}
			seen[d] = true
			if i > 0 && !tp.Adjacent(p[i-1], d) {
				t.Fatalf("snake step %d→%d not adjacent", p[i-1], d)
			}
		}
	}
}

// Property: every rectangle with even area and both sides ≥2 yields a
// closed Hamiltonian ring.
func TestRingPathProperty(t *testing.T) {
	tp := grid(10, 10)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		h := rng.Intn(5) + 2
		w := rng.Intn(5) + 2
		if h*w%2 == 1 {
			w++
		}
		if h > 10 || w > 10 {
			continue
		}
		r := Rect{0, 0, h - 1, w - 1}
		p, ok := r.RingPath(tp)
		if !ok {
			t.Fatalf("no ring for %dx%d", h, w)
		}
		if !tp.Adjacent(p[len(p)-1], p[0]) {
			t.Fatalf("%dx%d ring does not close: %v", h, w, p)
		}
	}
}

func TestHopDistanceSymmetric(t *testing.T) {
	tp := grid(5, 7)
	f := func(a, b uint8) bool {
		x := DieID(int(a) % tp.Dies())
		y := DieID(int(b) % tp.Dies())
		return tp.HopDistance(x, y) == tp.HopDistance(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
