// Package engine is the concurrent evaluation engine behind every
// design-space sweep in the repository. The cost model is a pure
// function of (model, wafer, config, options), so the engine memoizes
// its results in a goroutine-safe sharded cache and fans batches of
// configurations out across a bounded worker pool. The solver's
// genetic stage, the experiment runners and all three CLIs route
// their sweeps through it: figures that revisit the same
// configuration space (Fig. 13 and Fig. 14 sweep identical systems)
// pay for each evaluation once, and multi-core runners evaluate the
// rest in parallel.
//
// Below the memo layer, every worker also shares the pricing hot
// path's structural caches — interned topologies, per-topology
// placement/orchestration state and compiled collective-lowering
// templates (see DESIGN.md "Hot-path architecture") — because those
// key off process-global frozen topologies. A Sweep or GA population
// therefore lowers each distinct group structure once no matter how
// many candidates or workers touch it; TestSweepSharesHotPathCaches
// pins both the -race safety and the parallel/serial determinism of
// that sharing.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// Job identifies one cost-model evaluation. All fields are plain
// comparable values, so a Job doubles as the cache key.
type Job struct {
	Model  model.Config
	Wafer  hw.Wafer
	Config parallel.Config
	Opts   cost.Options
	// Backend is the canonical cost-backend key pricing the job
	// ("replay", "surrogate@seed=7"; see cost.BackendKey). Empty
	// means the pool's default backend — the analytic tier unless
	// SetDefaultBackend retargeted it. The resolved key is part of
	// the memo key, so tiers never share cache entries.
	Backend string
}

// Result is the outcome of one Job.
type Result struct {
	Breakdown cost.Breakdown
	Err       error
}

// shardCount is the cache's baseline shard count, keeping lock
// contention off the hot path; must be a power of two. SetWorkers
// grows the stripe count when the worker bound outstrips it (see
// shardsFor).
const shardCount = 64

// Cache is a goroutine-safe sharded memoization cache over
// cost.Evaluate, built on the shared Memo helper. The cost model is
// deterministic, so concurrent misses on the same key may compute
// twice but always store the same value; hit/miss counters track
// effectiveness. An optional persistent DiskMemo sits under the
// in-memory memo: in-memory misses probe it before pricing and
// freshly priced results are appended to it, so repeated runs
// warm-start with ~zero exact evaluations.
type Cache struct {
	memo        *Memo[Job, Result]
	disk        atomic.Pointer[DiskMemo]
	hits        atomic.Int64
	misses      atomic.Int64
	diskHits    atomic.Int64
	batchCalls  atomic.Int64
	batchedJobs atomic.Int64
	// Coalescer telemetry: flushes, the jobs they priced, and the
	// subset of those jobs that shared a flush with at least one
	// other submitter (the cross-request batching win).
	coalFlushes atomic.Int64
	coalJobs    atomic.Int64
	coalShared  atomic.Int64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return NewCacheSharded(shardCount)
}

// NewCacheSharded returns an empty cache striped over at least the
// given shard count.
func NewCacheSharded(shards int) *Cache {
	if shards < shardCount {
		shards = shardCount
	}
	return &Cache{memo: NewMemo[Job, Result](shards, jobHash)}
}

// shardsFor picks the stripe count for a worker bound: the baseline,
// grown to keep at least four stripes per worker (power of two).
func shardsFor(workers int) int {
	n := shardCount
	for n < 4*workers {
		n <<= 1
	}
	return n
}

// resharded returns a new cache striped over at least shards stripes
// with every entry, counter and the disk memo carried over. Callers
// swap it in atomically (see SetWorkers); evaluations racing with the
// swap may price against the old cache, which stays correct — the
// cost model is deterministic — and merely re-prices on first touch
// of the new cache.
func (c *Cache) resharded(shards int) *Cache {
	nc := NewCacheSharded(shards)
	c.memo.Range(func(k Job, v Result) {
		nc.memo.Get(k, func() Result { return v })
	})
	nc.disk.Store(c.disk.Load())
	nc.hits.Store(c.hits.Load())
	nc.misses.Store(c.misses.Load())
	nc.diskHits.Store(c.diskHits.Load())
	nc.batchCalls.Store(c.batchCalls.Load())
	nc.batchedJobs.Store(c.batchedJobs.Load())
	nc.coalFlushes.Store(c.coalFlushes.Load())
	nc.coalJobs.Store(c.coalJobs.Load())
	nc.coalShared.Store(c.coalShared.Load())
	return nc
}

// SetDiskMemo attaches (or, with nil, detaches) a persistent memo
// under the cache.
func (c *Cache) SetDiskMemo(d *DiskMemo) { c.disk.Store(d) }

// DiskMemo returns the attached persistent memo, or nil.
func (c *Cache) DiskMemo() *DiskMemo { return c.disk.Load() }

// jobHash mixes the discriminating key fields with FNV-1a. Only
// shard selection depends on it, so it hashes a representative
// subset of the key, not every field.
func jobHash(j Job) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	for i := 0; i < len(j.Model.Name); i++ {
		mix(uint64(j.Model.Name[i]))
	}
	mix(uint64(j.Model.Seq))
	mix(uint64(j.Model.Batch))
	mix(uint64(j.Model.Layers))
	c := j.Config
	mix(uint64(c.DP))
	mix(uint64(c.TP))
	mix(uint64(c.SP))
	mix(uint64(c.CP))
	mix(uint64(c.TATP))
	mix(uint64(c.PP))
	if c.FSDP {
		mix(1)
	}
	if c.MegatronSP {
		mix(2)
	}
	mix(uint64(j.Wafer.Rows))
	mix(uint64(j.Wafer.Cols))
	mix(uint64(j.Opts.Engine))
	mix(uint64(j.Opts.Recompute))
	mix(uint64(j.Opts.Microbatch))
	mix(uint64(j.Opts.Wafers))
	for i := 0; i < len(j.Backend); i++ {
		mix(uint64(j.Backend[i]))
	}
	return h
}

// priceJob runs one evaluation through the job's backend.
func priceJob(j Job) Result {
	be, err := cost.NewBackend(j.Backend)
	if err != nil {
		return Result{Err: err}
	}
	b, err := be.Price(j.Model, j.Wafer, j.Config, j.Opts)
	return Result{Breakdown: b, Err: err}
}

// Evaluate returns the memoized cost-model result for one job.
func (c *Cache) Evaluate(j Job) (cost.Breakdown, error) {
	// Normalize so equivalent configurations (and equivalent backend
	// spellings) share one entry; the cost model normalizes
	// internally, so the result is identical.
	j.Config = j.Config.Normalize()
	j.Backend = cost.CanonicalBackendKey(j.Backend)
	r := c.get(j, func() Result { return priceJob(j) })
	return r.Breakdown, r.Err
}

// get serves a normalized job through the memo hierarchy: in-memory
// memo, then the disk memo (when attached), then price. It maintains
// the hit/miss/disk counters; price runs at most once per distinct
// key and its result is persisted.
func (c *Cache) get(j Job, price func() Result) Result {
	fromDisk := false
	r, fresh := c.memo.Get(j, func() Result {
		if d := c.disk.Load(); d != nil {
			if dr, ok := d.Lookup(j); ok {
				fromDisk = true
				return dr
			}
		}
		res := price()
		if d := c.disk.Load(); d != nil {
			d.Store(j, res)
		}
		return res
	})
	switch {
	case !fresh:
		c.hits.Add(1)
	case fromDisk:
		c.diskHits.Add(1)
	default:
		c.misses.Add(1)
	}
	return r
}

// Stats reports cache effectiveness counters. The JSON tags make a
// snapshot directly embeddable in machine-readable outputs (tempbench
// -json, the tempserve /metrics endpoint).
type Stats struct {
	// Hits and Misses count in-memory cache hits and exact (priced)
	// evaluations; DiskHits counts in-memory misses served from the
	// persistent memo without pricing.
	Hits     int64 `json:"cache_hits"`
	Misses   int64 `json:"cache_misses"`
	DiskHits int64 `json:"cache_disk_hits"`
	// BatchCalls and BatchedJobs count batched-kernel invocations and
	// the candidates they covered (Sweep's miss path).
	BatchCalls  int64 `json:"batch_calls"`
	BatchedJobs int64 `json:"batched_jobs"`
	Entries     int   `json:"entries"`
	// DiskEntries is the persistent memo's record count (0 when none
	// is attached).
	DiskEntries int `json:"disk_entries"`
	// DiskCompacted and DiskDropped report what the persistent memo's
	// open-time recovery discarded: duplicate records rewritten away
	// by auto-compaction, and corrupt tail bytes dropped. Both are 0
	// when no memo is attached or the file was clean.
	DiskCompacted int `json:"disk_compacted_records"`
	DiskDropped   int `json:"disk_dropped_bytes"`
	// CoalesceFlushes/CoalescedJobs/CoalesceShared report the
	// cross-request miss coalescer: batched flushes, the distinct jobs
	// they priced, and the jobs that flushed together with another
	// submitter's (0 unless a Coalescer is attached).
	CoalesceFlushes int64 `json:"coalesce_flushes"`
	CoalescedJobs   int64 `json:"coalesced_jobs"`
	CoalesceShared  int64 `json:"coalesce_shared_jobs"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), DiskHits: c.diskHits.Load(),
		BatchCalls: c.batchCalls.Load(), BatchedJobs: c.batchedJobs.Load(),
		CoalesceFlushes: c.coalFlushes.Load(), CoalescedJobs: c.coalJobs.Load(),
		CoalesceShared: c.coalShared.Load(),
		Entries:        c.memo.Len(),
	}
	if d := c.disk.Load(); d != nil {
		s.DiskEntries = d.Len()
		s.DiskCompacted = d.Compacted()
		_, s.DiskDropped = d.Recovered()
	}
	return s
}

// Pool couples a worker count with a cache. The zero worker count
// means runtime.GOMAXPROCS(0). The bound is global across nested
// fan-outs: Map calls may nest freely (experiments → systems →
// config sweeps), but every cost-model evaluation routed through the
// pool acquires one of its workers tokens, so at most workers
// evaluations compute concurrently no matter how deep the
// orchestration stacks.
type Pool struct {
	workers int
	cache   *Cache
	// backend is the default cost-backend key injected into jobs that
	// leave Job.Backend empty ("" = analytic). It retargets every
	// sweep routed through the pool — the CLI -backend axis.
	backend string
	// sem bounds concurrent leaf evaluations. Only leaves (the
	// actual cost-model computation, which never re-enters the
	// engine) hold a token, so nested Map orchestration cannot
	// deadlock against it.
	sem chan struct{}
	// coal, when non-nil, merges concurrent Sweeps' cache misses
	// across callers before batched pricing (the serving daemon's
	// cross-request batching hook; see Coalescer).
	coal *Coalescer
}

// New returns a pool with its own cache. workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, cache: NewCache(), sem: make(chan struct{}, workers)}
}

// Do runs one leaf computation under the pool's global evaluation
// bound. f must not call back into the pool (it would deadlock the
// token it holds); the engine's own evaluation paths already route
// through Do, so callers only need it for work that bypasses the
// cache (e.g. cluster evaluations).
func (p *Pool) Do(f func()) {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	f()
}

// Workers returns the pool's worker bound.
func (p *Pool) Workers() int { return p.workers }

// Cache returns the pool's cache.
func (p *Pool) Cache() *Cache { return p.cache }

// Evaluate runs one memoized cost-model evaluation under the pool's
// global bound.
func (p *Pool) Evaluate(m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options) (cost.Breakdown, error) {
	return p.evaluate(Job{Model: m, Wafer: w, Config: cfg, Opts: o})
}

// EvaluateJob runs one memoized evaluation of an explicit job
// (including its backend key) under the pool's global bound.
func (p *Pool) EvaluateJob(j Job) (cost.Breakdown, error) {
	return p.evaluate(j)
}

// normalize canonicalizes a job for cache keying: equivalent
// configurations and backend spellings share one entry, and the
// pool's default backend is resolved in.
func (p *Pool) normalize(j Job) Job {
	j.Config = j.Config.Normalize()
	if j.Backend == "" {
		j.Backend = p.backend
	}
	j.Backend = cost.CanonicalBackendKey(j.Backend)
	return j
}

// evaluate serves a job from the cache, acquiring a worker token
// only for the miss path (the actual cost-model computation).
func (p *Pool) evaluate(j Job) (cost.Breakdown, error) {
	j = p.normalize(j)
	r := p.cache.get(j, func() Result {
		var res Result
		p.Do(func() {
			res = priceJob(j)
		})
		return res
	})
	return r.Breakdown, r.Err
}

// jobFamily is what a batch of candidates shares: everything in a Job
// except the parallel configuration. Sweep groups cache misses by
// family so each group prices through one batched kernel invocation,
// amortizing topology, block-graph and lowering-state lookups across
// the whole group.
type jobFamily struct {
	Model   model.Config
	Wafer   hw.Wafer
	Opts    cost.Options
	Backend string
}

// sweepChunkCap bounds one batched pricing call so a large miss set
// still spreads across the worker pool.
const sweepChunkCap = 64

// Sweep fans the jobs out across the pool's workers and returns
// their results in input order, regardless of completion order.
//
// Misses are priced in batches: after probing the in-memory memo and
// the disk memo, the distinct unpriced jobs are grouped by family and
// chunked through cost.PriceBatch, so a population-sized sweep pays
// the per-family setup once per chunk instead of once per candidate.
// Results and cache-counter semantics are identical to evaluating
// each job individually (a batch prices each candidate bit-exactly as
// a batch of one).
func (p *Pool) Sweep(jobs []Job) []Result {
	out := make([]Result, len(jobs))
	norm := make([]Job, len(jobs))
	var missIdx []int
	for i := range jobs {
		j := p.normalize(jobs[i])
		norm[i] = j
		if r, ok := p.cache.memo.Peek(j); ok {
			out[i] = r
			p.cache.hits.Add(1)
			continue
		}
		missIdx = append(missIdx, i)
	}
	if len(missIdx) == 0 {
		return out
	}

	// Group the distinct misses the disk memo does not hold by family,
	// in first-seen order.
	seen := make(map[Job]bool, len(missIdx))
	disk := p.cache.disk.Load()
	families := make(map[jobFamily][]parallel.Config)
	var order []jobFamily
	distinct := 0
	for _, i := range missIdx {
		j := norm[i]
		if seen[j] {
			continue
		}
		seen[j] = true
		if disk != nil {
			if _, ok := disk.Lookup(j); ok {
				continue
			}
		}
		f := jobFamily{Model: j.Model, Wafer: j.Wafer, Opts: j.Opts, Backend: j.Backend}
		if _, ok := families[f]; !ok {
			order = append(order, f)
		}
		families[f] = append(families[f], j.Config)
		distinct++
	}

	priced := make(map[Job]Result, distinct)
	if distinct > 0 {
		if co := p.coal; co != nil {
			// Cross-request miss coalescing: hand the family groups to
			// the coalescer, which merges them with other in-flight
			// sweeps' misses before pricing (results are bit-identical —
			// batched kernels are grouping-invariant).
			co.price(order, families, priced)
		} else {
			p.priceFamilies(order, families, distinct, priced)
		}
	}

	// Publish through Cache.get, as one Evaluate per job would: it
	// serves the disk-held jobs from the disk memo, stores and persists
	// the priced ones and keeps the counters.
	for _, i := range missIdx {
		j := norm[i]
		out[i] = p.cache.get(j, func() Result {
			if r, ok := priced[j]; ok {
				return r
			}
			return priceJob(j) // the disk memo was detached after the probe
		})
	}
	return out
}

// priceFamilies prices family-grouped configuration lists through
// chunked cost.PriceBatch calls spread across the pool, writing each
// job's result into priced. distinct is the total config count across
// families (for chunk sizing and the batched-jobs counter).
func (p *Pool) priceFamilies(order []jobFamily, families map[jobFamily][]parallel.Config, distinct int, priced map[Job]Result) {
	// Chunk so the distinct misses spread across the pool while
	// each batch stays large enough to amortize its setup.
	size := (distinct + p.workers - 1) / p.workers
	if size < 1 {
		size = 1
	}
	if size > sweepChunkCap {
		size = sweepChunkCap
	}
	type chunk struct {
		fam  jobFamily
		cfgs []parallel.Config
	}
	var chunks []chunk
	for _, f := range order {
		cfgs := families[f]
		for s := 0; s < len(cfgs); s += size {
			e := s + size
			if e > len(cfgs) {
				e = len(cfgs)
			}
			chunks = append(chunks, chunk{fam: f, cfgs: cfgs[s:e]})
		}
	}
	results := make([][]Result, len(chunks))
	p.Map(len(chunks), func(ci int) {
		c := chunks[ci]
		rs := make([]Result, len(c.cfgs))
		be, err := cost.NewBackend(c.fam.Backend)
		if err != nil {
			for k := range rs {
				rs[k] = Result{Err: err}
			}
			results[ci] = rs
			return
		}
		p.Do(func() {
			bs, es := cost.PriceBatch(be, c.fam.Model, c.fam.Wafer, c.cfgs, c.fam.Opts)
			for k := range rs {
				rs[k] = Result{Breakdown: bs[k], Err: es[k]}
			}
		})
		results[ci] = rs
	})
	p.cache.batchCalls.Add(int64(len(chunks)))
	p.cache.batchedJobs.Add(int64(distinct))
	for ci, c := range chunks {
		for k, cfg := range c.cfgs {
			j := Job{Model: c.fam.Model, Wafer: c.fam.Wafer, Config: cfg,
				Opts: c.fam.Opts, Backend: c.fam.Backend}
			priced[j] = results[ci][k]
		}
	}
}

// Map runs f(0..n-1) across the pool's workers. Each index runs
// exactly once; f must be safe for concurrent invocation when the
// pool has more than one worker.
func (p *Pool) Map(n int, f func(i int)) {
	ForEach(p.workers, n, f)
}

// ForEach runs f(0..n-1) across at most workers goroutines. With one
// worker (or one item) it degenerates to a plain serial loop, so
// callers can treat it as the single fan-out primitive at any
// parallelism level.
func ForEach(workers, n int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var firstPanic atomic.Pointer[PanicError]
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			// A panic in f unwinds this goroutine; the deferred recover
			// publishes it (first wins) instead of crashing the process.
			// Keeping the recover at the goroutine top — not per item —
			// keeps the loop body allocation-free.
			defer func() {
				if r := recover(); r != nil {
					firstPanic.CompareAndSwap(nil, newPanicError(r))
				}
			}()
			for firstPanic.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	if pe := firstPanic.Load(); pe != nil {
		// Surface the first worker panic to the caller. The serial path
		// above propagates panics naturally; here we re-panic with the
		// captured value plus its original stack.
		panic(pe)
	}
}

// defaultPool serves the package-level helpers; the CLIs retune its
// worker bound via SetWorkers while every caller keeps sharing one
// cache.
var defaultPool atomic.Pointer[Pool]

func init() {
	defaultPool.Store(New(0))
}

// Default returns the shared pool.
func Default() *Pool { return defaultPool.Load() }

// SetWorkers rebounds the shared pool's worker count, retaining the
// shared cache contents (and the default backend and any attached
// disk memo). When the new worker bound outgrows the cache's stripe
// count, the cache is resharded — entries and counters migrate — so a
// late SetWorkers call still gets contention-appropriate striping
// instead of the init-time default. Evaluations racing with the swap
// land in the old cache and are re-priced on first touch of the new
// one; call SetWorkers during setup to avoid the (correct but
// wasteful) overlap.
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	cur := Default()
	cache := cur.cache
	if want := shardsFor(n); want > cache.memo.Shards() {
		cache = cache.resharded(want)
	}
	defaultPool.Store(&Pool{workers: n, cache: cache, backend: cur.backend, sem: make(chan struct{}, n), coal: cur.coal})
}

// Workers returns the shared pool's worker bound.
func Workers() int { return Default().workers }

// SetDefaultBackend retargets the shared pool's default cost backend:
// every job that does not name a backend explicitly is priced by this
// tier from now on. The cache is retained — backend keys are part of
// the memo key, so tiers never cross-contaminate. The key must
// resolve (see cost.NewBackend); it is returned canonicalized.
func SetDefaultBackend(key string) (string, error) {
	canon := cost.CanonicalBackendKey(key)
	if _, err := cost.NewBackend(canon); err != nil {
		return "", err
	}
	cur := Default()
	defaultPool.Store(&Pool{workers: cur.workers, cache: cur.cache, backend: canon, sem: make(chan struct{}, cur.workers), coal: cur.coal})
	return canon, nil
}

// DefaultBackend returns the shared pool's default backend key (""
// means analytic).
func DefaultBackend() string { return Default().backend }

// SetDiskMemo attaches a persistent memo under the pool's cache (nil
// detaches). In-memory misses consult it before pricing; fresh
// results are appended to it.
func (p *Pool) SetDiskMemo(d *DiskMemo) { p.cache.SetDiskMemo(d) }

// AttachDiskMemo opens (creating if needed) the persistent memo in
// dir and attaches it to the shared pool — the CLIs' -memo-dir /
// TEMPMEMO hook. Returns the memo so callers can Close it on exit.
func AttachDiskMemo(dir string) (*DiskMemo, error) {
	d, err := OpenDiskMemo(dir)
	if err != nil {
		return nil, err
	}
	Default().SetDiskMemo(d)
	return d, nil
}

// HasDiskMemo reports whether the shared pool has a memo attached —
// what a fabric worker advertises in its hello so the coordinator
// knows whether to sync warm state.
func HasDiskMemo() bool { return Default().cache.DiskMemo() != nil }

// MemoSegment serializes the shared pool's attached memo for shipping
// to shared-nothing workers (distrib memo sync). Returns (nil, 0)
// when no memo is attached, it is empty, or serialization fails —
// sync is an optimization, never a failure mode.
func MemoSegment() ([]byte, int) {
	d := Default().cache.DiskMemo()
	if d == nil {
		return nil, 0
	}
	n := d.Len()
	if n == 0 {
		return nil, 0
	}
	seg, err := d.Segment()
	if err != nil {
		return nil, 0
	}
	return seg, n
}

// ImportMemoSegment merges a serialized memo segment into the shared
// pool's attached memo, attaching an in-memory one first when none is
// present (the shared-nothing worker case). Returns records merged.
func ImportMemoSegment(data []byte) (int, error) {
	d := Default().cache.DiskMemo()
	if d == nil {
		d = NewMemoryMemo()
		Default().SetDiskMemo(d)
	}
	return d.ImportSegment(data)
}

// CountersSnapshot returns the shared engine's cache counters — the
// single accessor CLIs and the serving daemon read instead of
// reaching into pool internals.
func CountersSnapshot() Stats { return Default().cache.Stats() }

// EvaluateJob runs one memoized evaluation of an explicit job on the
// shared pool.
func EvaluateJob(j Job) (cost.Breakdown, error) { return Default().EvaluateJob(j) }

// Evaluate runs one memoized evaluation on the shared pool.
func Evaluate(m model.Config, w hw.Wafer, cfg parallel.Config, o cost.Options) (cost.Breakdown, error) {
	return Default().Evaluate(m, w, cfg, o)
}

// Sweep fans jobs out on the shared pool.
func Sweep(jobs []Job) []Result { return Default().Sweep(jobs) }

// Map runs f(0..n-1) on the shared pool.
func Map(n int, f func(i int)) { Default().Map(n, f) }

// Do runs one leaf computation under the shared pool's global
// evaluation bound.
func Do(f func()) { Default().Do(f) }
