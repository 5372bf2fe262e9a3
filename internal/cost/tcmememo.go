package cost

import (
	"math"
	"sync"
	"sync/atomic"

	"temp/internal/mesh"
	"temp/internal/tcme"
)

// The TCME memo. On the lowered-template path, every term the TCME
// engine (or the replay backend) prices is a compiled template scaled
// to one byte value, and the optimizer's result depends on nothing
// else but the topology and its options. Sweeps re-price the same
// inputs constantly: the gradient all-reduce and the FSDP collectives
// do not depend on sequence length or batch, and one evaluation prices
// some terms more than once. So each (template, bytes, options) input
// is optimized once per interned topology, and later evaluations
// replay the stored per-phase values. The memo hangs off the topology
// through Topology.Derived, as do the evalStates whose templates key
// it, so entries and keys are freed together with the topology.
//
// Replaying is bit-identical to optimizing again: OptimizeAll
// optimizes each phase on its own and SeqTime sums per-phase Time
// results in phase order, so adding the stored per-phase values in the
// same order reproduces every floating-point chain exactly. An entry
// therefore keeps only what the evaluator reads of each phase, and the
// entry's integer counters once; no phases and no flows.

// tcmeKey is one optimizer input on a topology. bytes is the per-flow
// byte value's bit pattern.
type tcmeKey struct {
	tmpl  *mesh.PhaseTemplate
	bytes uint64
	opts  tcme.Options
}

// tcmePhase is what the evaluator reads of one optimized phase: its
// Time (serialization, hop latency, link bytes) and the optimizer's
// bottleneck loads.
type tcmePhase struct {
	ser, hop, linkBytes  float64
	initialMax, finalMax float64
}

// tcmeRun is n consecutive phases with equal values. The steps of a
// ring collective or a stream schedule are mostly rotations of one
// another, so a template's phases collapse into a few runs.
type tcmeRun struct {
	tcmePhase
	n int32
}

// tcmeEntry is one optimized template: its phases' values as runs in
// phase order, and the summed optimizer counters.
type tcmeEntry struct {
	runs                         []tcmeRun
	iterations, merged, rerouted int32
}

// tcmeMemo is a topology's memo. The read path takes a read lock and a
// map lookup, so a warm entry costs no allocation.
type tcmeMemo struct {
	mu sync.RWMutex
	m  map[tcmeKey]*tcmeSlot
}

// tcmeSlot is one key's entry, optimized once: concurrent first
// lookups of a key share the slot the first of them inserted and wait
// on its once for the optimizer. So every key is optimized once and
// counts one miss however the lookups race.
type tcmeSlot struct {
	once sync.Once
	e    tcmeEntry
}

// tcmeMemoKey is the Topology.Derived key of a topology's memo.
type tcmeMemoKey struct{}

// tcmeMemoOf returns topo's memo, or nil on a mutable topology, whose
// states are rebuilt per evaluation and never cache.
func tcmeMemoOf(topo *mesh.Topology) *tcmeMemo {
	if !topo.Frozen() {
		return nil
	}
	return topo.Derived(tcmeMemoKey{}, func() any { return new(tcmeMemo) }).(*tcmeMemo)
}

var tcmeHits, tcmeMisses, tcmeEntries atomic.Int64

// TCMEMemoCounts reports the TCME memo's effectiveness: entries stored
// and lookup hit/miss counters. Entries counts stores over the process
// lifetime (an entry may since have been released with its topology).
type TCMEMemoCounts struct {
	Entries      int
	Hits, Misses int64
}

// TCMEMemoStats snapshots the TCME memo counters.
func TCMEMemoStats() TCMEMemoCounts {
	return TCMEMemoCounts{
		Entries: int(tcmeEntries.Load()),
		Hits:    tcmeHits.Load(),
		Misses:  tcmeMisses.Load(),
	}
}

// optimized returns the TCME entry of one scaled template on topo,
// optimizing it on a miss. A nil memo optimizes every time.
func (mm *tcmeMemo) optimized(topo *mesh.Topology, ls mesh.LoweredSeq, opts tcme.Options) tcmeEntry {
	if mm == nil {
		tcmeMisses.Add(1)
		return optimizeTemplate(topo, ls, opts)
	}
	k := tcmeKey{tmpl: ls.Tmpl, bytes: math.Float64bits(ls.Bytes), opts: opts}
	mm.mu.RLock()
	sl, ok := mm.m[k]
	mm.mu.RUnlock()
	if !ok {
		mm.mu.Lock()
		if sl, ok = mm.m[k]; !ok {
			if mm.m == nil {
				mm.m = make(map[tcmeKey]*tcmeSlot)
			}
			sl = new(tcmeSlot)
			mm.m[k] = sl
		}
		mm.mu.Unlock()
	}
	if ok {
		tcmeHits.Add(1)
	} else {
		tcmeMisses.Add(1)
		tcmeEntries.Add(1)
	}
	sl.once.Do(func() { sl.e = optimizeTemplate(topo, ls, opts) })
	return sl.e
}

// optimizeTemplate materializes one scaled template and optimizes and
// times each phase exactly as OptimizeAll followed by SeqTime would.
func optimizeTemplate(topo *mesh.Topology, ls mesh.LoweredSeq, opts tcme.Options) tcmeEntry {
	var e tcmeEntry
	for _, p := range ls.Tmpl.Materialize(ls.Bytes) {
		r := tcme.Optimize(topo, p, opts)
		pt := topo.Time(r.Phase)
		ph := tcmePhase{
			ser: pt.Serialization, hop: pt.HopLatency, linkBytes: pt.LinkBytes,
			initialMax: r.InitialMaxLoad, finalMax: r.FinalMaxLoad,
		}
		if n := len(e.runs); n > 0 && e.runs[n-1].tcmePhase == ph {
			e.runs[n-1].n++
		} else {
			e.runs = append(e.runs, tcmeRun{ph, 1})
		}
		e.iterations += int32(r.Iterations)
		e.merged += int32(r.MergedFlows)
		e.rerouted += int32(r.ReroutedFlows)
	}
	return e
}
