package mesh

import "sync/atomic"

// PhaseTemplate is an immutable, byte-invariant compiled phase
// sequence: the route structures, payloads and labels of a lowered
// collective depend only on the topology and the ordered die group,
// while every flow's byte count rescales uniformly with the query
// (ring chunks, stream sub-tensors, broadcast payloads). Compiling the
// structure once and materializing per query removes route
// computation — the dominant cost of lowering — from the evaluation
// hot path.
//
// All flows of a template share one backing array, so Materialize is
// exactly two allocations. Templates are safe for concurrent use: the
// returned phases share the template's routes and payload strings,
// which consumers never mutate in place (the TCME optimizer clones
// phases and replaces routes wholesale).
type PhaseTemplate struct {
	phases []Phase
	flows  []Flow
	// prof heads a tiny list of per-topology SoA link-load profiles
	// (almost always exactly one: templates are compiled from one
	// topology's routes and only ever timed on it).
	prof atomic.Pointer[linkProfile]
}

// linkProfile is the structure-of-arrays distillation of one template
// on one topology: for every phase, the touched canonical link IDs in
// ascending order with their traversal counts, plus the per-phase flow
// count, total traversal count and longest route. Because all of a
// template's flows carry one byte value per evaluation, these counts
// are sufficient to reproduce the dense Time walk bit-for-bit —
// each link's load is the same value added count times — without
// zeroing per-link scratch or re-deriving link IDs per candidate.
type linkProfile struct {
	topo *Topology
	// off[p]..off[p+1] bounds phase p's entries in ids/counts.
	off    []int32
	ids    []int32
	counts []int32
	// flows, travs and hops are per-phase: flow count, total (flow,
	// link) traversals and the longest route's hop count.
	flows []int32
	travs []int32
	hops  []int32
	// next links profiles for other topologies (rare; bounded by the
	// interned-topology count).
	next *linkProfile
}

// profileFor returns the template's SoA profile on t, compiling it on
// first use. Lookup is one atomic load plus a pointer compare, so the
// steady-state evaluation path stays allocation-free.
func (t *Topology) profileFor(tmpl *PhaseTemplate) *linkProfile {
	head := tmpl.prof.Load()
	for p := head; p != nil; p = p.next {
		if p.topo == t {
			return p
		}
	}
	p := t.buildProfile(tmpl)
	p.next = head
	// A lost race leaves the other builder's profile installed; ours
	// is still correct for this call and simply rebuilt next time.
	tmpl.prof.CompareAndSwap(head, p)
	return p
}

// buildProfile counts each phase's per-link traversals through the
// same forEachLink walk the Time kernel uses; like Time, it panics on
// a route step that is not a mesh link.
func (t *Topology) buildProfile(tmpl *PhaseTemplate) *linkProfile {
	n := len(tmpl.phases)
	p := &linkProfile{
		topo:  t,
		off:   make([]int32, 1, n+1),
		flows: make([]int32, 0, n),
		travs: make([]int32, 0, n),
		hops:  make([]int32, 0, n),
	}
	s := timePool.Get().(*timeScratch)
	for _, ph := range tmpl.phases {
		s.grab(len(t.links))
		maxHops := 0
		for i := range ph.Flows {
			if h := ph.Flows[i].Route.Hops(); h > maxHops {
				maxHops = h
			}
		}
		travs := int32(0)
		ph.forEachLink(func(i int, l Link) {
			s.msgCount[t.routeLinkID(l)]++
			travs++
		})
		for id, c := range s.msgCount {
			if c > 0 {
				p.ids = append(p.ids, int32(id))
				p.counts = append(p.counts, c)
			}
		}
		p.off = append(p.off, int32(len(p.ids)))
		p.flows = append(p.flows, int32(len(ph.Flows)))
		p.travs = append(p.travs, travs)
		p.hops = append(p.hops, int32(maxHops))
	}
	timePool.Put(s)
	return p
}

// repAdd sums v added to a zero accumulator n times — the exact float
// chain a dense walk produces for a link traversed n times by equal
// flows. It is NOT n*v in general (0.1 added three times ≠ 0.3·…),
// and the goldens pin the walk's value.
func repAdd(v float64, n int32) float64 {
	var s float64
	for i := int32(0); i < n; i++ {
		s += v
	}
	return s
}

// timePhaseProfiled evaluates phase ph of a profiled template with
// every flow carrying scale bytes, bit-identical to Time on the phase
// materialized at scale: per-link loads are the same repeated
// additions, the bottleneck scan visits the same IDs in the same
// ascending order with the same strictly-greater tie-break, and the
// aggregate fields replicate their walk-order summation chains.
func (t *Topology) timePhaseProfiled(p *linkProfile, ph int, scale float64) PhaseTime {
	var out PhaseTime
	out.TotalBytes = repAdd(scale, p.flows[ph])
	out.LinkBytes = repAdd(scale, p.travs[ph])
	out.MaxHops = int(p.hops[ph])
	lastN := int32(-1)
	var load float64
	for k := p.off[ph]; k < p.off[ph+1]; k++ {
		n := p.counts[k]
		if n != lastN {
			load = repAdd(scale, n)
			lastN = n
		}
		mean := load / float64(n)
		bw := t.link.EffectiveBandwidth(mean)
		if ser := load / bw; ser > out.Serialization {
			out.Serialization = ser
			out.Bottleneck = t.links[p.ids[k]]
			out.BottleneckBytes = load
		}
	}
	out.HopLatency = float64(out.MaxHops) * t.link.Latency
	return out
}

// NewPhaseTemplate compiles phases into a template. The input is
// deep-copied at the phase/flow level; flow Bytes values are dropped
// (they are supplied by Materialize).
func NewPhaseTemplate(phases []Phase) *PhaseTemplate {
	t := &PhaseTemplate{phases: make([]Phase, len(phases))}
	total := 0
	for _, p := range phases {
		total += len(p.Flows)
	}
	t.flows = make([]Flow, 0, total)
	for i, p := range phases {
		start := len(t.flows)
		t.flows = append(t.flows, p.Flows...)
		end := len(t.flows)
		t.phases[i] = Phase{Label: p.Label, Flows: t.flows[start:end:end]}
	}
	for i := range t.flows {
		t.flows[i].Bytes = 0
	}
	return t
}

// Phases returns the number of phases in the template.
func (t *PhaseTemplate) Phases() int { return len(t.phases) }

// Flows returns the total flow count across phases.
func (t *PhaseTemplate) Flows() int { return len(t.flows) }

// LoweredSeq pairs a compiled template with the per-flow byte value
// one evaluation assigns it — a phase sequence that never needs to be
// materialized to be timed.
type LoweredSeq struct {
	Tmpl  *PhaseTemplate
	Bytes float64
}

// SeqTimeLowered evaluates the concatenation of scaled templates
// exactly as SeqTime would evaluate the materialized concatenation —
// same phase order, same per-accumulator float summation order — but
// without materializing anything. This is the zero-allocation
// collective path of the analytic cost model. The TCME path prices the
// same sequences through the cost package's TCME memo, which
// materializes a template only when it first optimizes it.
//
// Phases run through the template's compiled SoA link profile (see
// linkProfile), so pricing K candidate byte sizes against one template
// costs K bottleneck scans over the touched links instead of K full
// route walks with per-link scratch zeroing. As with Time, every route
// step must be a mesh link; compiling the profile panics otherwise.
func (t *Topology) SeqTimeLowered(seq []LoweredSeq) PhaseTime {
	var out PhaseTime
	var worst float64
	for _, ls := range seq {
		if ls.Tmpl == nil {
			continue
		}
		prof := t.profileFor(ls.Tmpl)
		for i := range ls.Tmpl.phases {
			pt := t.timePhaseProfiled(prof, i, ls.Bytes)
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
	}
	return out
}

// MaterializeSeq concatenates the materialized phases of a scaled
// template sequence, in order. No pricing path needs the concatenation;
// it is the reference that SeqTimeLowered and the TCME memo's replay
// are tested against.
func MaterializeSeq(seq []LoweredSeq) []Phase {
	var out []Phase
	for _, ls := range seq {
		if ls.Tmpl == nil {
			continue
		}
		out = append(out, ls.Tmpl.Materialize(ls.Bytes)...)
	}
	return out
}

// Materialize returns the template's phase sequence with every flow
// carrying bytes. Phase and flow order match the uncompiled lowering
// exactly, so downstream float accumulation is bit-identical.
func (t *PhaseTemplate) Materialize(bytes float64) []Phase {
	if len(t.phases) == 0 {
		return nil
	}
	flows := make([]Flow, len(t.flows))
	copy(flows, t.flows)
	for i := range flows {
		flows[i].Bytes = bytes
	}
	phases := make([]Phase, len(t.phases))
	off := 0
	for i := range t.phases {
		n := len(t.phases[i].Flows)
		phases[i] = Phase{Label: t.phases[i].Label, Flows: flows[off : off+n : off+n]}
		off += n
	}
	return phases
}
