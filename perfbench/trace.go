package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// public function it calls. Parent is the index of the enclosing span,
// -1 for a root; spans of one operation share a root.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; a nil tracer records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, EndNS: -1, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (the
// server-reported queue wait and solve time of a request).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNS: start.Sub(t.t0).Nanoseconds(),
		EndNS: end.Sub(t.t0).Nanoseconds(), Parent: parent})
	return len(t.spans) - 1
}

// measured reports, per span, whether it belongs to a measured
// operation rather than to a replay tree.
func (t *tracer) measured() []bool {
	out := make([]bool, len(t.spans))
	for i, s := range t.spans {
		// Parents precede their children.
		if s.Parent >= 0 {
			out[i] = out[s.Parent]
		} else {
			out[i] = !strings.HasPrefix(s.Name, "replay")
		}
	}
	return out
}

// selfTimes returns each kept span name's total self time: the span's
// duration minus the part of its interval its children cover.
func (t *tracer) selfTimes(keep []bool) map[string]time.Duration {
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if !keep[i] {
			continue
		}
		covered := int64(0)
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		lo, hi := int64(-1), int64(-1)
		for _, c := range iv {
			a, b := max(c[0], s.StartNS), min(c[1], s.EndNS)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// total returns the summed duration of every span with the name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.EndNS - s.StartNS)
			n++
		}
	}
	return d, n
}

// attribute turns the self times of the measured operations' spans
// (everything outside the "replay" tree) into each layer's share of
// the workload's wall clock.
func (t *tracer) attribute(rep *report) {
	var all time.Duration
	byLayer := map[string]time.Duration{}
	for name, d := range t.selfTimes(t.measured()) {
		layer := shareOf(name)
		byLayer[layer] += d
		all += d
	}
	if all <= 0 {
		return
	}
	for layer, d := range byLayer {
		rep.Layers["share."+layer+"_pct"] = 100 * float64(d) / float64(all)
	}
}

// shareOf maps a measured span name to the layer it is attributed to.
func shareOf(name string) string {
	switch name {
	case "experiments.fig21":
		// fig21 is the surrogate DNN training experiment.
		return "surrogate"
	case "serve.request":
		// A request's self time is the round trip minus the server's
		// queue wait and solve time.
		return "serve.http"
	case "serve.queue_wait", "serve.solve":
		return name
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// layerMetric names one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics is every per-layer metric a traced run prints, on every
// workload; a layer the workload does not exercise reads 0.
var layerMetrics = func() []layerMetric {
	var out []layerMetric
	for _, id := range experimentIDs {
		out = append(out, layerMetric{"experiments." + id + "_s", "s"})
	}
	return append(out, []layerMetric{
		{"surrogate.train_ms", "ms"},
		{"nn.train_batch_us", "us"},
		{"cost.evaluate_tcme_us", "us"},
		{"cost.evaluate_tcme_allocs", "count"},
		{"cost.evaluate_gmap_us", "us"},
		{"cost.evaluate_smap_us", "us"},
		{"cost.price_batch_us", "us"},
		{"mesh.seqtime_ns", "ns"},
		{"tcme.optimize_us", "us"},
		{"baselines.best_ms", "ms"},
		{"sim.scenario_ms", "ms"},
		{"engine.misses", "count"},
		{"engine.batch_jobs_per_call", "count"},
		{"collective.lowering_hit_ratio", "ratio"},
		{"solver.ga_ms", "ms"},
		{"solver.anneal_ms", "ms"},
		{"solver.hillclimb_ms", "ms"},
		{"solver.dp_ms", "ms"},
		{"solver.evals_per_s", "1/s"},
		{"engine.hit_ratio", "ratio"},
		{"engine.memo_hit_ns", "ns"},
		{"engine.coalesce_shared_ratio", "ratio"},
		{"spec.resolve_us", "us"},
		{"serve.queue_wait_ms", "ms"},
		{"serve.solve_ms", "ms"},
		{"serve.http_overhead_ms", "ms"},
		{"serve.retries_503", "count"},
		{"trace.overhead_ms", "ms"},
		{"trace.overhead_pct", "%"},
		{"share.experiments_pct", "%"},
		{"share.surrogate_pct", "%"},
		{"share.baselines_pct", "%"},
		{"share.solver_pct", "%"},
		{"share.serve.queue_wait_pct", "%"},
		{"share.serve.solve_pct", "%"},
		{"share.serve.http_pct", "%"},
	}...)
}()
