package mesh

import (
	"fmt"
	"sort"
	"sync"
)

// Flow is one point-to-point transfer inside a communication phase:
// Bytes of payload moving from Src to Dst along Route. Payload names
// the logical datum carried so that the TCME optimizer can recognise
// duplicate transmissions of the same data and merge them into
// multicast trees (§VI-B phase 4).
type Flow struct {
	Src, Dst DieID
	Bytes    float64
	Route    Path
	Payload  string
}

// Phase is a set of flows that execute concurrently. A phase
// completes when its slowest link has drained; consecutive phases are
// serialized by the caller.
type Phase struct {
	Label string
	Flows []Flow
}

// LinkLoads accumulates the byte load each alive link carries.
type LinkLoads map[Link]float64

// forEachLink calls fn for every (flow index, traversed link) pair of
// the phase, in flow order then route order. It is the single
// load-accumulation walk shared by Loads, the dense Time kernel and
// the template profile, so their float summation orders cannot drift.
func (p Phase) forEachLink(fn func(i int, l Link)) {
	for i := range p.Flows {
		r := p.Flows[i].Route
		for j := 0; j+1 < len(r); j++ {
			fn(i, Link{r[j], r[j+1]})
		}
	}
}

// Loads computes the per-link byte loads of the phase.
func (p Phase) Loads() LinkLoads {
	out := make(LinkLoads)
	p.forEachLink(func(i int, l Link) { out[l] += p.Flows[i].Bytes })
	return out
}

// PhaseTime is the latency estimate for one phase: the bottleneck
// link's serialization time (its byte load over granularity-adjusted
// bandwidth) plus the longest flow's hop latency. This is the
// standard α–β contention model the wafer cost model builds on.
type PhaseTime struct {
	// Serialization is the bottleneck-link drain time in seconds.
	Serialization float64
	// HopLatency is the per-hop propagation of the longest route.
	HopLatency float64
	// Bottleneck is the most loaded link.
	Bottleneck Link
	// BottleneckBytes is its byte load.
	BottleneckBytes float64
	// TotalBytes is the payload volume summed over flows (for
	// energy accounting each byte is charged per hop separately;
	// see LinkBytes).
	TotalBytes float64
	// LinkBytes is the volume summed over every (flow, link) pair —
	// the quantity D2D energy scales with.
	LinkBytes float64
	// MaxHops is the longest route length.
	MaxHops int
}

// Total returns the phase completion time.
func (pt PhaseTime) Total() float64 { return pt.Serialization + pt.HopLatency }

// timeScratch holds the dense per-link accumulators of the Time
// kernel, reused through a pool so steady-state evaluation allocates
// nothing. Slices are indexed by canonical link ID and grown to the
// largest topology seen.
type timeScratch struct {
	loads    []float64
	msgCount []int32
}

var timePool = sync.Pool{New: func() any { return new(timeScratch) }}

// grab sizes the scratch for n links and zeroes it.
func (s *timeScratch) grab(n int) {
	if cap(s.loads) < n {
		s.loads = make([]float64, n)
		s.msgCount = make([]int32, n)
		return
	}
	s.loads = s.loads[:n]
	s.msgCount = s.msgCount[:n]
	for i := range s.loads {
		s.loads[i] = 0
		s.msgCount[i] = 0
	}
}

// routeLinkID returns the canonical ID of a route step. Every route
// step must be a mesh link — routes come from Route, RouteXY, RouteYX,
// RouteWeighted and MulticastTree, which only join neighbouring dies —
// so an off-mesh step is a caller bug and panics naming the link.
func (t *Topology) routeLinkID(l Link) int {
	id := t.LinkID(l)
	if id < 0 {
		panic(fmt.Sprintf("mesh: route step %v is not a link of the %dx%d mesh", l, t.rows, t.cols))
	}
	return id
}

// Time evaluates the phase on topology t. Every route step must be a
// mesh link; an off-mesh step panics.
//
// The kernel accumulates per-link loads into flat arrays over the
// canonical link index and scans IDs in ascending order for the
// bottleneck — bit-identical to the historical map-accumulate-and-sort
// implementation, because link IDs ascend in exactly the (From, To)
// order the old sort used and the per-accumulator float summation
// order (flow order, then route order) is unchanged.
func (t *Topology) Time(p Phase) PhaseTime {
	var out PhaseTime
	for i := range p.Flows {
		out.TotalBytes += p.Flows[i].Bytes
		if h := p.Flows[i].Route.Hops(); h > out.MaxHops {
			out.MaxHops = h
		}
	}
	s := timePool.Get().(*timeScratch)
	s.grab(len(t.links))
	p.forEachLink(func(i int, l Link) {
		id := t.routeLinkID(l)
		bytes := p.Flows[i].Bytes
		s.loads[id] += bytes
		s.msgCount[id]++
		out.LinkBytes += bytes
	})
	for id := range s.loads {
		n := s.msgCount[id]
		if n == 0 {
			continue
		}
		// Per-link mean message size drives granularity efficiency.
		mean := s.loads[id] / float64(n)
		bw := t.link.EffectiveBandwidth(mean)
		ser := s.loads[id] / bw
		if ser > out.Serialization {
			out.Serialization = ser
			out.Bottleneck = t.links[id]
			out.BottleneckBytes = s.loads[id]
		}
	}
	timePool.Put(s)
	out.HopLatency = float64(out.MaxHops) * t.link.Latency
	return out
}

// SeqTime evaluates a sequence of phases executed back to back and
// returns the summed PhaseTime (bottleneck fields describe the
// slowest phase).
func (t *Topology) SeqTime(phases []Phase) PhaseTime {
	var out PhaseTime
	var worst float64
	for _, p := range phases {
		pt := t.Time(p)
		out.Serialization += pt.Serialization
		out.HopLatency += pt.HopLatency
		out.TotalBytes += pt.TotalBytes
		out.LinkBytes += pt.LinkBytes
		if pt.MaxHops > out.MaxHops {
			out.MaxHops = pt.MaxHops
		}
		if pt.Total() > worst {
			worst = pt.Total()
			out.Bottleneck = pt.Bottleneck
			out.BottleneckBytes = pt.BottleneckBytes
		}
	}
	return out
}

// Utilization summarises how evenly a phase loads the mesh: the mean
// link load divided by the bottleneck load over alive links that
// carry traffic, and the fraction of alive links used at all. Both
// feed the bandwidth-utilization figures (Fig. 4(b)).
type Utilization struct {
	// Balance is mean(loaded links) / max load, in (0,1].
	Balance float64
	// Coverage is loaded links / alive links, in [0,1].
	Coverage float64
}

// Utilization computes phase utilization on t.
func (t *Topology) Utilization(p Phase) Utilization {
	loads := p.Loads()
	if len(loads) == 0 {
		return Utilization{}
	}
	var sum, max float64
	for _, v := range loads {
		sum += v
		if v > max {
			max = v
		}
	}
	alive := t.aliveLinks()
	u := Utilization{}
	if max > 0 {
		u.Balance = sum / float64(len(loads)) / max
	}
	if alive > 0 {
		u.Coverage = float64(len(loads)) / float64(alive)
	}
	return u
}

// MulticastTree merges a set of same-payload flows from a common
// source into a tree: each link carries the payload once instead of
// once per destination. It returns the equivalent flows (one per
// tree edge... represented as per-destination flows sharing deduped
// links) as a single Flow per unique tree link, preserving total
// drain-time semantics under the link-serialization model.
func MulticastTree(t *Topology, src DieID, dsts []DieID, bytes float64, payload string) []Flow {
	if len(dsts) == 0 {
		return nil
	}
	// Greedy nearest-attachment Steiner heuristic: grow the tree
	// from src, always attaching the closest remaining destination
	// via a shortest path to any node already in the tree.
	inTree := map[DieID]bool{src: true}
	treeLinks := map[Link]bool{}
	remaining := append([]DieID(nil), dsts...)
	SortDies(remaining)
	for len(remaining) > 0 {
		bestIdx, bestLen := -1, 0
		var bestPath Path
		for i, d := range remaining {
			if inTree[d] {
				// Already covered by an earlier attachment.
				bestIdx, bestPath = i, Path{d}
				break
			}
			// Shortest path from d to the current tree.
			p := t.RouteWeighted(d, src, nil)
			// Trim at first tree node.
			for j, node := range p {
				if inTree[node] {
					p = p[:j+1]
					break
				}
			}
			if bestIdx == -1 || len(p) < bestLen {
				bestIdx, bestLen, bestPath = i, len(p), p
			}
		}
		d := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		if len(bestPath) == 0 {
			continue // unreachable destination (faulted); skip
		}
		// bestPath runs from d toward the tree; traffic flows the
		// other way (tree → d).
		for i := len(bestPath) - 1; i > 0; i-- {
			treeLinks[Link{bestPath[i], bestPath[i-1]}] = true
			inTree[bestPath[i-1]] = true
		}
		inTree[d] = true
	}
	// Emit one flow per tree link so that the serialization model
	// charges each link exactly once.
	links := make([]Link, 0, len(treeLinks))
	for l := range treeLinks {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	out := make([]Flow, 0, len(links))
	for _, l := range links {
		out = append(out, Flow{
			Src:     l.From,
			Dst:     l.To,
			Bytes:   bytes,
			Route:   Path{l.From, l.To},
			Payload: payload,
		})
	}
	return out
}

// ValidatePhase checks that every flow's route is connected, starts
// at Src and ends at Dst over alive links. Used by tests and by the
// TCME optimizer's invariant checks.
func (t *Topology) ValidatePhase(p Phase) error {
	for i, f := range p.Flows {
		if len(f.Route) == 0 {
			return fmt.Errorf("mesh: flow %d (%s) has empty route", i, f.Payload)
		}
		if f.Route[0] != f.Src || f.Route[len(f.Route)-1] != f.Dst {
			return fmt.Errorf("mesh: flow %d (%s) route endpoints %v do not match %d→%d",
				i, f.Payload, f.Route, f.Src, f.Dst)
		}
		if !f.Route.Valid(t) {
			return fmt.Errorf("mesh: flow %d (%s) route %v crosses a missing or dead link",
				i, f.Payload, f.Route)
		}
		if f.Bytes < 0 {
			return fmt.Errorf("mesh: flow %d (%s) has negative bytes", i, f.Payload)
		}
	}
	return nil
}

// EnergyJoules returns the D2D transfer energy of a phase: every byte
// is charged per traversed link at the link's energy/bit.
func (t *Topology) EnergyJoules(p Phase) float64 {
	var linkBytes float64
	for _, f := range p.Flows {
		linkBytes += f.Bytes * float64(f.Route.Hops())
	}
	return linkBytes * 8 * t.link.EnergyPerBit
}
