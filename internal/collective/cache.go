package collective

import (
	"sync"
	"sync/atomic"

	"temp/internal/mesh"
)

// The memoized collective-lowering cache. Lowering a collective is
// route construction: every ring step, chain hop and multicast tree
// computes paths on the mesh, and the evaluation hot path lowers the
// same (topology, ordered die group, collective kind) combination for
// every candidate configuration that places a group on the same dies.
// The route structures are byte-invariant — only the per-flow byte
// count changes with the query — so each combination compiles to a
// mesh.PhaseTemplate once and is rescaled per query.
//
// Only frozen (interned) topologies are cached: a mutable topology's
// routes can change under fault injection, and its pointer identity
// would pin stale templates. Mutable topologies take the uncached
// build path, which is the historical behaviour.

// Lowering kinds, one key byte each.
const (
	kindAllReduce     = 'A'
	kindAllGather     = 'G'
	kindReduceScatter = 'R'
	kindBroadcast     = 'B'
	kindP2P           = 'P'
	kindChain         = 'C'
	kindAllToAll      = 'X'
)

// lowerMap is one topology's compiled-lowering store. It lives ON the
// topology (via Topology.Derived), not in a package-global map keyed
// by topology pointer: caches share the topology's lifetime, so a
// faulted topology that falls out of the interner takes its templates
// with it instead of pinning them process-wide.
type lowerMap struct {
	sync.RWMutex
	m map[string]*lowerEntry
}

// lowerEntry is one key's template, compiled once: concurrent first
// lookups of a key share the entry the first of them inserted, and
// wait on its once for the compile. So every key costs one build and
// counts one miss however the lookups race.
type lowerEntry struct {
	once sync.Once
	tmpl *mesh.PhaseTemplate
}

// lowerMapKey is the Derived key under which a topology stores its
// lowering cache.
type lowerMapKey struct{}

func lowerMapOf(t *mesh.Topology) *lowerMap {
	return t.Derived(lowerMapKey{}, func() any {
		return &lowerMap{m: map[string]*lowerEntry{}}
	}).(*lowerMap)
}

var lowerHits, lowerMisses, lowerTemplates atomic.Int64

// LoweringStats reports the lowering cache's effectiveness: compiled
// template count and query hit/miss counters.
type LoweringStats struct {
	Templates    int
	Hits, Misses int64
}

// CacheStats snapshots the lowering cache counters. Templates counts
// compiles over the process lifetime (a compiled template may since
// have been released with its topology).
func CacheStats() LoweringStats {
	return LoweringStats{
		Templates: int(lowerTemplates.Load()),
		Hits:      lowerHits.Load(),
		Misses:    lowerMisses.Load(),
	}
}

// keyPool recycles key-building buffers; cache hits therefore build
// their lookup key without allocating (map reads through string(b) do
// not materialize the string).
var keyPool = sync.Pool{New: func() any { b := make([]byte, 0, 160); return &b }}

// lower returns the lowering for (t, kind, tag, dies) with every flow
// carrying perFlowBytes. build constructs the phase structure for an
// arbitrary uniform byte value; on frozen topologies it runs once per
// key and the compiled template is rescaled per query.
func lower(t *mesh.Topology, kind byte, tag string, dies []mesh.DieID,
	perFlowBytes float64, build func(bytes float64) []mesh.Phase) []mesh.Phase {
	if !t.Frozen() {
		return build(perFlowBytes)
	}
	lm := lowerMapOf(t)
	bp := keyPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, kind)
	b = append(b, tag...)
	b = append(b, 0)
	for _, d := range dies {
		v := uint32(d)
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	lm.RLock()
	e, ok := lm.m[string(b)]
	lm.RUnlock()
	if !ok {
		lm.Lock()
		if e, ok = lm.m[string(b)]; !ok {
			e = new(lowerEntry)
			lm.m[string(b)] = e
		}
		lm.Unlock()
	}
	if ok {
		lowerHits.Add(1)
	} else {
		lowerMisses.Add(1)
		lowerTemplates.Add(1)
	}
	*bp = b
	keyPool.Put(bp)
	e.once.Do(func() { e.tmpl = mesh.NewPhaseTemplate(build(1)) })
	return e.tmpl.Materialize(perFlowBytes)
}
