package cost

import (
	"fmt"
	"sync"

	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
)

// BatchBackend is the optional interface of tiers that price many
// candidate configurations of one (model, wafer, options) family per
// call. A batch shares everything the candidates have in common — the
// interned topology, the block graph, the per-configuration lowering
// states and the pricing scratch — so the per-candidate marginal cost
// collapses to the bottleneck scans of the compiled SoA link profiles.
// Results are bit-identical to per-candidate Price calls; out and errs
// must both have len(cfgs).
type BatchBackend interface {
	PriceBatch(m model.Config, w hw.Wafer, cfgs []parallel.Config, o Options, out []Breakdown, errs []error)
}

// PriceBatch prices every candidate configuration through the
// backend, using its batched kernel when it has one and falling back
// to per-candidate Price calls otherwise. Each out[i], errs[i] equals
// what be.Price(m, w, cfgs[i], o) returns, bit for bit.
func PriceBatch(be Backend, m model.Config, w hw.Wafer, cfgs []parallel.Config, o Options) ([]Breakdown, []error) {
	out := make([]Breakdown, len(cfgs))
	errs := make([]error, len(cfgs))
	if bb, ok := be.(BatchBackend); ok {
		bb.PriceBatch(m, w, cfgs, o, out, errs)
		return out, errs
	}
	for i, cfg := range cfgs {
		out[i], errs[i] = be.Price(m, w, cfg, o)
	}
	return out, errs
}

// batchScratch is the pooled pricing state every full-step pricing
// runs on: one reusable evaluator value, the lowered-sequence buffer
// it threads through the stream/collective terms, a normalized-config
// dedupe index and a per-topology evalState cache that skips the
// interface boxing of Topology.Derived on repeat candidates.
type batchScratch struct {
	ev     evaluator
	seq    []mesh.LoweredSeq
	seen   map[parallel.Config]int32
	topo   *mesh.Topology
	states map[stateKey]*evalState
}

var batchPool = sync.Pool{New: func() any {
	return &batchScratch{
		seen:   make(map[parallel.Config]int32),
		states: make(map[stateKey]*evalState),
	}
}}

// retarget points the scratch at a topology, dropping state cached for
// a previous one.
func (s *batchScratch) retarget(topo *mesh.Topology) {
	if s.topo != topo {
		s.topo = topo
		clear(s.states)
	}
	clear(s.seen)
}

// stateFor is the scratch-cached stateFor: repeat (cfg, family) asks
// within and across batches on one topology cost a plain map hit.
func (s *batchScratch) stateFor(cfg parallel.Config, linear, tcmeOrders bool) (*evalState, error) {
	k := stateKey{cfg: cfg, linear: linear, tcme: tcmeOrders}
	if st, ok := s.states[k]; ok {
		return st, st.err
	}
	st, err := stateFor(s.topo, cfg, linear, tcmeOrders)
	s.states[k] = st
	return st, err
}

// evaluateState prices one (cfg, state) pair on topo with the reused
// evaluator. topo is passed rather than read from s.topo because
// caller-owned placements (evaluateOn) price on topologies the
// scratch's state cache must not be retargeted to.
func (s *batchScratch) evaluateState(m model.Config, w hw.Wafer, cfg parallel.Config, o Options,
	topo *mesh.Topology, st *evalState, graph model.Graph, replay bool) (Breakdown, error) {
	s.ev = evaluator{
		m: m, w: w, cfg: cfg, o: o,
		topo: topo, st: st,
		graph:  graph,
		replay: replay,
		seqBuf: s.seq[:0],
	}
	b, err := s.ev.run()
	s.seq = s.ev.seqBuf[:0]
	return b, err
}

// priceOne is the engine dispatch of a normalized candidate: SMap
// places linear runs, GMap hierarchical rectangles, and the TCME
// engine races both placement families and keeps the faster.
func (s *batchScratch) priceOne(m model.Config, w hw.Wafer, cfg parallel.Config, o Options,
	graph model.Graph, replay bool) (Breakdown, error) {
	tcmeOrders := o.Engine == TCMEEngine
	if o.Engine == SMap || o.Engine == GMap {
		st, err := s.stateFor(cfg, o.Engine == SMap, tcmeOrders)
		if err != nil {
			return Breakdown{}, err
		}
		return s.evaluateState(m, w, cfg, o, s.topo, st, graph, replay)
	}
	rect, rectErr := s.stateFor(cfg, false, tcmeOrders)
	lin, linErr := s.stateFor(cfg, true, tcmeOrders)
	if rectErr != nil && linErr != nil {
		return Breakdown{}, rectErr
	}
	var best Breakdown
	have := false
	if rectErr == nil {
		b, err := s.evaluateState(m, w, cfg, o, s.topo, rect, graph, replay)
		if err == nil {
			best, have = b, true
		}
	}
	if linErr == nil {
		b, err := s.evaluateState(m, w, cfg, o, s.topo, lin, graph, replay)
		if err == nil && (!have || b.StepTime < best.StepTime) {
			best, have = b, true
		}
	}
	if !have {
		return Breakdown{}, fmt.Errorf("cost: no viable placement for %s", cfg)
	}
	return best, nil
}

// priceBatch is the one full-step pricing walk: normalize, dedupe,
// price each distinct candidate once on the pooled scratch.
func priceBatch(m model.Config, w hw.Wafer, cfgs []parallel.Config, o Options,
	out []Breakdown, errs []error, replay bool) {
	s := batchPool.Get().(*batchScratch)
	s.retarget(mesh.FromWafer(w))
	graph := model.BlockGraph(m)
	for i := range cfgs {
		n := cfgs[i].Normalize()
		if j, ok := s.seen[n]; ok {
			out[i], errs[i] = out[j], errs[j]
			continue
		}
		s.seen[n] = int32(i)
		out[i], errs[i] = s.priceOne(m, w, n, o, graph, replay)
	}
	batchPool.Put(s)
}

// price prices one candidate as a batch of one.
func price(m model.Config, w hw.Wafer, cfg parallel.Config, o Options, replay bool) (Breakdown, error) {
	var out [1]Breakdown
	var errs [1]error
	priceBatch(m, w, []parallel.Config{cfg}, o, out[:], errs[:], replay)
	return out[0], errs[0]
}

// evaluateOn lowers an externally supplied placement (fault studies)
// and prices it on the pooled scratch. The lowering state is built
// fresh because the caller owns the placement; its templates die with
// this evaluation, so its TCME memo is private to it.
func evaluateOn(m model.Config, w hw.Wafer, cfg parallel.Config, o Options,
	topo *mesh.Topology, place *parallel.Placement, replay bool) (Breakdown, error) {
	st := newEvalState(topo, place, o.Engine == TCMEEngine)
	st.tcme = new(tcmeMemo)
	s := batchPool.Get().(*batchScratch)
	b, err := s.evaluateState(m, w, cfg.Normalize(), o, topo, st, model.BlockGraph(m), replay)
	batchPool.Put(s)
	return b, err
}
