package cost

import (
	"fmt"
	"sync"

	"temp/internal/collective"
	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
	"temp/internal/stream"
	"temp/internal/tcme"
	"temp/internal/unit"
)

// replayPlacement carries the per-configuration lowering state the
// replay operator model reuses across calls: the placement, the TATP
// stream orchestrations and the TP group communication orders — plus
// the delta caches of the replayed terms themselves. A configuration's
// TP collective time depends on nothing but the configuration (the
// all-reduce payload is per-op-invariant), and its stream time depends
// only on the streamed sub-tensor size, so a solver mutating one
// assignment gene re-prices at most one fresh (cfg, sub) pair instead
// of replaying every phase sequence again.
type replayPlacement struct {
	place *parallel.Placement
	orchs []*stream.Orchestration
	tp    [][]mesh.DieID
	err   error

	// mu guards the replayed-term caches below. Holding it across the
	// replay itself also collapses concurrent duplicate work on one
	// configuration into a single computation.
	mu sync.Mutex
	// coll is the cached TP collective term (collOK marks it set).
	coll   float64
	collOK bool
	// streamT caches the exposed TATP stream term per streamed
	// sub-tensor byte size.
	streamT map[float64]float64
}

// OperatorReplay is the replay backend's per-operator model: the
// compute and memory terms match the analytic tier (they are not
// communication), but the TATP stream and TP collective terms are
// lowered onto an actual placement of the configuration and link-load
// replayed through the TCME optimizer — capturing the inter-group
// contention and multi-hop wrap costs the closed-form ring formulas
// average away.
//
// Per-configuration lowering state is built once and cached; the
// model is safe for concurrent use.
type OperatorReplay struct {
	analytic OperatorAnalytic
	topo     *mesh.Topology

	mu    sync.Mutex
	cache map[parallel.Config]*replayPlacement
}

// NewOperatorReplay builds the replay operator model for one
// model/wafer pair. The topology is the interned shared instance, so
// the replay tier's stream orchestrations and ring lowerings hit the
// same compiled-template caches the analytic evaluator populates.
func NewOperatorReplay(m model.Config, w hw.Wafer) *OperatorReplay {
	return NewOperatorReplayOn(m, w, mesh.FromWafer(w))
}

// NewOperatorReplayOn is NewOperatorReplay pinned to an explicit
// topology — typically a fault-degraded mesh, so searches can rank
// candidate configurations by how well their streams and collectives
// route around dead links (the repair solver's degraded cost model).
// Intern the topology first: frozen instances share the compiled
// lowering caches across every model built on the same fault mask.
func NewOperatorReplayOn(m model.Config, w hw.Wafer, topo *mesh.Topology) *OperatorReplay {
	return &OperatorReplay{
		analytic: OperatorAnalytic{W: w, M: m},
		topo:     topo,
		cache:    map[parallel.Config]*replayPlacement{},
	}
}

// placement returns the cached lowering state for a configuration.
func (r *OperatorReplay) placement(cfg parallel.Config) *replayPlacement {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.cache[cfg]; ok {
		return p
	}
	p := &replayPlacement{}
	place, err := parallel.Place(cfg, r.topo)
	if err != nil {
		if place, err = parallel.PlaceLinear(cfg, r.topo); err != nil {
			p.err = fmt.Errorf("cost: replay cannot place %s: %w", cfg, err)
			r.cache[cfg] = p
			return p
		}
	}
	p.place = place
	for _, g := range place.Groups(parallel.TATP) {
		p.orchs = append(p.orchs, stream.Orchestrate(r.topo, g.Dies, g.Rect))
	}
	for _, g := range place.Groups(parallel.TP) {
		order := g.Dies
		if g.Rect != nil {
			if ring, ok := g.Rect.RingPath(r.topo); ok {
				order = ring
			} else {
				order = g.Rect.SnakePath(r.topo)
			}
		}
		if len(order) > 1 {
			p.tp = append(p.tp, order)
		}
	}
	r.cache[cfg] = p
	return p
}

// replayPhases times a phase sequence through the TCME link-load
// replay.
func (r *OperatorReplay) replayPhases(phases []mesh.Phase) float64 {
	if len(phases) == 0 {
		return 0
	}
	opt, _ := tcme.OptimizeAll(r.topo, phases, tcme.Options{})
	return r.topo.SeqTime(opt).Total()
}

// Intra implements OperatorModel.
func (r *OperatorReplay) Intra(op model.Op, cfg parallel.Config) float64 {
	cfg = cfg.Normalize()
	a := &r.analytic
	pl := r.placement(cfg)
	if pl.err != nil {
		// Unplaceable on this grid: fall back to the closed-form terms
		// so the search still prices the candidate deterministically.
		return a.Intra(op, cfg)
	}

	// Compute is priced exactly as the analytic tier — the fidelity
	// axis is communication.
	comp := a.computeTerm(op, cfg)

	var streamT float64
	if cfg.TATP > 1 && op.HasWeight() && len(pl.orchs) > 0 {
		_, sub := a.streamedBytes(op, cfg)
		streamT = pl.streamTerm(r, cfg, sub)
	}

	var coll float64
	if cfg.TP > 1 && op.HasWeight() && len(pl.tp) > 0 {
		coll = pl.collTerm(r, cfg)
	}
	return unit.MaxF(comp, streamT) + coll
}

// streamTerm returns the replayed exposed-stream term of the
// placement's configuration for one streamed sub-tensor size, caching
// it: the phase sequence depends only on (placement, sub), so every
// operator with the same streamed slice shares one replay.
func (pl *replayPlacement) streamTerm(r *OperatorReplay, cfg parallel.Config, sub float64) float64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if t, ok := pl.streamT[sub]; ok {
		return t
	}
	var seqs [][]mesh.Phase
	for _, orch := range pl.orchs {
		seqs = append(seqs, orch.Phases(sub))
	}
	t := r.replayPhases(collective.Merge(seqs...)) +
		float64(cfg.TATP)*streamRoundSync
	if pl.streamT == nil {
		pl.streamT = map[float64]float64{}
	}
	pl.streamT[sub] = t
	return t
}

// collTerm returns the replayed TP collective term, computed once per
// placement: the all-reduce payload is a function of the configuration
// alone, so every weighted operator shares one replay.
func (pl *replayPlacement) collTerm(r *OperatorReplay, cfg parallel.Config) float64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.collOK {
		return pl.coll
	}
	arBytes := r.analytic.arBytes(cfg)
	var seqs [][]mesh.Phase
	for _, order := range pl.tp {
		seqs = append(seqs, collective.RingAllReduce(r.topo, order, arBytes))
	}
	merged := collective.Merge(seqs...)
	// Same 0.5 amortization (one AR per two weighted ops) and the
	// same per-phase sync charge as the full evaluator.
	pl.coll = 0.5 * (r.replayPhases(merged) + float64(len(merged))*streamRoundSync)
	pl.collOK = true
	return pl.coll
}

// Inter implements OperatorModel: the structural resharding bytes are
// exact; the transfer is replayed as a routed single-hop exchange
// (adding the hop latency the closed form drops).
func (r *OperatorReplay) Inter(prev, next model.Op, pc, nc parallel.Config) float64 {
	bytes := r.analytic.ReshardBytes(prev, pc, nc)
	if bytes <= 0 {
		return 0
	}
	return bytes/r.analytic.W.Link.EffectiveBandwidth(bytes) + r.analytic.W.Link.Latency
}

// MemoryOK implements OperatorModel (memory is closed-form at every
// tier).
func (r *OperatorReplay) MemoryOK(cfg parallel.Config) bool {
	return r.analytic.MemoryOK(cfg)
}

var _ OperatorModel = (*OperatorReplay)(nil)
