package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"temp/internal/collective"
	"temp/internal/engine"
	"temp/internal/serve"
	"temp/internal/sim"
	"temp/internal/spec"
)

// The serve-zipf catalog: a handful of (model, wafer) pairs, each
// asked for as a plain sweep, as solves with different strategies and
// seeds, and inside batch requests. Requests on one pair share its
// sweep prices, so only the first request touching a pair prices
// cold; the rest of the first-seen requests re-run a solver on warm
// prices, like the repeats.
var servePairs = [][2]string{
	{"gpt3-6.7b", "wsc-4x8"}, {"llama2-7b", "wsc-4x8"}, {"deepseek-7b", "wsc-4x8"},
	{"llama2-30b", "wsc-4x8-a100match"}, {"llama3-70b", "wsc-4x8"}, {"gpt3-76b", "wsc-4x8-a100match"},
}

// serveClamp is the batch requests' evaluation clamp: above the
// chain-DP seed's ~29k terms, so the clamped searches still move.
const serveClamp = 30000

// zipfS is the Zipf exponent of request popularity.
const zipfS = 1.1

func solveSpec(pair [2]string, strategy string, seed int64) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Name:  fmt.Sprintf("%s/%s/%s/%d", pair[0], pair[1], strategy, seed),
		Model: spec.ModelRef{Name: pair[0]}, Wafer: spec.WaferRef{Name: pair[1]},
		Solver: &spec.SolverSpec{Strategy: strategy, Seed: seed},
	}
}

// serveCatalog returns the requests in popularity-rank order: rank r
// is drawn with probability proportional to 1/(1+r)^zipfS. Rank r is
// variant r%8 of a pair, so sweeps, solves and batches interleave
// across ranks and the traffic mix does not depend on the seed.
func serveCatalog() []spec.RequestSpec {
	const variants = 8
	out := make([]spec.RequestSpec, variants*len(servePairs))
	for r := range out {
		v := r % variants
		i := (r/variants + v) % len(servePairs)
		p := servePairs[i]
		var req spec.RequestSpec
		switch v {
		case 0:
			sw := spec.ScenarioSpec{Name: p[0] + "/" + p[1] + "/sweep",
				Model: spec.ModelRef{Name: p[0]}, Wafer: spec.WaferRef{Name: p[1]}}
			req = spec.RequestSpec{Scenario: &sw}
		case 1, 2, 3, 4, 5:
			st := []string{"ga", "anneal", "hillclimb", "dp", "ga"}[v-1]
			sc := solveSpec(p, st, int64(7+v*13))
			req = spec.RequestSpec{Scenario: &sc}
		case 6, 7:
			a := solveSpec(p, []string{"anneal", "hillclimb"}[v-6], int64(5+v))
			b := solveSpec(p, []string{"dp", "ga"}[v-6], int64(9+v))
			req = spec.RequestSpec{Scenarios: []spec.ScenarioSpec{a, b}, Budget: &spec.BudgetSpec{Evals: serveClamp}}
		}
		req.ID = fmt.Sprintf("c%02d", r)
		req.Tenant = fmt.Sprintf("team-%c", 'a'+i%3)
		out[r] = req
	}
	return out
}

// servePass is how many requests one pass sends: enough that the
// first-seen requests (at most one per catalog entry) are a minority.
const servePass = 512

// serveClients is the number of closed-loop clients, each on its own
// connection: mapping callers (CI jobs, CLIs) wait for their reply.
const serveClients = 2

type serveZipf struct {
	seed    int64
	srv     *http.Server
	base    string
	clients []*http.Client
	// served holds the canonical bytes of each catalog entry's first
	// response; later responses are compared with it as they arrive.
	mu     sync.Mutex
	served map[int][]byte
}

// setup starts the daemon and waits until it answers; the request
// catalog and the Zipf draws are the benchmark's, so they are built
// after set-up is timed.
func (s *serveZipf) setup(seed int64) error {
	// The daemon's default flags on this 2-core host: workers and
	// max-concurrent = GOMAXPROCS, max-queue 64, coalesce 2ms.
	engine.SetWorkers(0)
	engine.SetCoalescer(engine.NewCoalescer(nil, 2*time.Millisecond, 0))
	srv := serve.New(serve.Options{MaxConcurrent: engine.Workers(), MaxQueue: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: srv}
	go s.srv.Serve(ln)
	s.base = "http://" + ln.Addr().String()
	s.seed = seed
	for i := 0; i < serveClients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute})
	}
	resp, err := s.clients[0].Get(s.base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// post sends one request, retrying 503s after their Retry-After up to
// three times; retries and the refused attempts' time count against
// the request.
func (s *serveZipf) post(c *http.Client, body []byte) (serve.Response, int, error) {
	var out serve.Response
	for retry := 0; ; retry++ {
		resp, err := c.Post(s.base+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			return out, retry, err
		}
		buf, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return out, retry, err
		}
		if resp.StatusCode == http.StatusServiceUnavailable && retry < 3 {
			after, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(after, 0))*time.Second + 10*time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return out, retry, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(buf))
		}
		return out, retry, json.Unmarshal(buf, &out)
	}
}

func (s *serveZipf) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := s.clients[0].Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func (s *serveZipf) measure(tr *tracer) (*report, error) {
	catalog := serveCatalog()
	var bodies [][]byte
	for _, r := range catalog {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	z := rand.NewZipf(rand.New(rand.NewSource(s.seed)), zipfS, 1, uint64(len(catalog)-1))
	draws := make([]int, servePass)
	for i := range draws {
		draws[i] = int(z.Uint64())
	}
	s.served = map[int][]byte{}

	rep := &report{Named: map[string]float64{}, Layers: map[string]float64{}}
	m0, err := s.metrics()
	if err != nil {
		return nil, err
	}
	l0 := collective.CacheStats()
	var next atomic.Int64
	var retries atomic.Int64
	var qwSum, elSum, ovSum atomic.Int64
	var solveEvals atomic.Int64
	lat := make([][]float64, serveClients)
	fails := make([]int, serveClients)
	start, cpu0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(draws) {
					return
				}
				idx := draws[i]
				t0 := time.Now()
				resp, n, err := s.post(s.clients[c], bodies[idx])
				t1 := time.Now()
				retries.Add(int64(n))
				if err != nil {
					lat[c] = append(lat[c], -1)
					fails[c]++
					continue
				}
				lat[c] = append(lat[c], perCall(t1.Sub(t0), 1, time.Millisecond))
				qwSum.Add(resp.QueueWaitNS)
				elSum.Add(resp.ElapsedNS)
				ovSum.Add(t1.Sub(t0).Nanoseconds() - resp.QueueWaitNS - resp.ElapsedNS)
				if tr != nil {
					root := tr.add("serve.request", -1, t0, t1)
					q := t0.Add(time.Duration(resp.QueueWaitNS))
					done := q.Add(time.Duration(resp.ElapsedNS))
					solve := tr.add("serve.solve", root, q, done)
					tr.add("serve.queue_wait", root, t0, q)
					// Each scenario's search reports its own time; the
					// searches end with the request, so their spans are
					// placed at its end.
					for _, r := range resp.Results {
						if r.Solver != nil {
							tr.add("solver."+r.Solver.Strategy, solve, maxTime(q, done.Add(-r.Solver.Elapsed)), done)
							solveEvals.Add(int64(r.Solver.Evaluations))
						}
					}
				}
				if err := s.record(idx, resp.Results); err != nil {
					lat[c][len(lat[c])-1] = -1
					fails[c]++
					s.mu.Lock()
					rep.fail("request %s: %v", catalog[idx].ID, err)
					s.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	rep.WindowS = time.Since(start).Seconds()
	cpu := cpuTime() - cpu0
	for c := range lat {
		rep.LatMS = append(rep.LatMS, lat[c]...)
		rep.Failed += fails[c]
	}
	rep.Attempted = len(rep.LatMS)
	rep.CPUMS = []float64{perCall(cpu, rep.Attempted-rep.Failed, time.Millisecond)}
	rep.Named["first_seen"] = float64(len(s.served))
	if rep.Failed > 0 {
		rep.fail("%d of %d requests failed", rep.Failed, rep.Attempted)
	}
	m1, err := s.metrics()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	rep.Served = map[string]json.RawMessage{}
	for idx, b := range s.served {
		rep.Served[catalog[idx].ID] = b
	}

	if tr != nil {
		ok := rep.Attempted - rep.Failed
		rep.Layers["serve.queue_wait_ms"] = perCall(time.Duration(qwSum.Load()), ok, time.Millisecond)
		rep.Layers["serve.solve_ms"] = perCall(time.Duration(elSum.Load()), ok, time.Millisecond)
		rep.Layers["serve.http_overhead_ms"] = perCall(time.Duration(ovSum.Load()), ok, time.Millisecond)
		rep.Layers["serve.retries_503"] = float64(retries.Load())
		counterLayers(rep, counters{m0.Engine, l0}, counters{m1.Engine, collective.CacheStats()})
		solverLayers(tr, rep, int(solveEvals.Load()))
	}
	return rep, nil
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// record keeps the canonical bytes of a catalog entry's first
// response and compares every later response with them, so the
// benchmark holds at most one response per entry.
func (s *serveZipf) record(idx int, rs []serve.ResultWire) error {
	got, err := json.Marshal(serve.CanonicalResults(rs))
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	want, ok := s.served[idx]
	if !ok {
		s.served[idx] = got
		return nil
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("response differs from an earlier one: %s", firstDiff(string(got), string(want)))
	}
	return nil
}

// directResults caches serveDirect by request id: every pass of a run
// sends the same requests, so the parent solves each one once.
var directResults = map[string][]byte{}

// checkServed compares each distinct served response with a direct
// in-process solve of its request, both under serve.CanonicalResults.
// It runs in the parent after the measuring child has exited, so the
// reference solves count in neither the child's time nor its memory.
func checkServed(rep *report) {
	if len(rep.Served) == 0 {
		return
	}
	byID := map[string]spec.RequestSpec{}
	for _, r := range serveCatalog() {
		byID[r.ID] = r
	}
	ids := make([]string, 0, len(rep.Served))
	for id := range rep.Served {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		req, ok := byID[id]
		if !ok {
			rep.fail("served response for unknown request %s", id)
			return
		}
		want, ok := directResults[id]
		if !ok {
			var err error
			if want, err = json.Marshal(serveDirect(req)); err != nil {
				rep.fail("%v", err)
				return
			}
			directResults[id] = want
		}
		if got := rep.Served[id]; !bytes.Equal(got, want) {
			rep.fail("request %s: served response differs from the direct solve: %s",
				id, firstDiff(string(got), string(want)))
			return
		}
	}
}

func serveDirect(r spec.RequestSpec) []serve.ResultWire {
	rs, err := serve.RunRequest(r)
	if err != nil {
		return []serve.ResultWire{{Err: err.Error()}}
	}
	return serve.CanonicalResults(rs)
}

// replay resolves the served requests' scenario specs (spec.Resolve)
// and prices the catalog's pairs through the cost stack.
func (s *serveZipf) replay(tr *tracer, rep *report) error {
	byID := map[string]spec.RequestSpec{}
	for _, r := range serveCatalog() {
		byID[r.ID] = r
	}
	var specs []spec.ScenarioSpec
	for id := range rep.Served {
		specs = append(specs, byID[id].Specs()...)
	}
	if _, err := replayResolve(tr, rep, specs); err != nil {
		return err
	}
	var ins []pricingInput
	for _, p := range servePairs {
		sc, err := spec.ScenarioSpec{Model: spec.ModelRef{Name: p[0]}, Wafer: spec.WaferRef{Name: p[1]}}.Resolve()
		if err != nil {
			return err
		}
		r, err := sim.RunScenario(sc)
		if err != nil {
			return err
		}
		ins = append(ins, pricingInput{m: sc.Model, w: sc.Wafer, cfgs: tempSpace(sc.Wafer), chosen: r.Config})
	}
	return replayPricing(tr, rep, ins)
}
