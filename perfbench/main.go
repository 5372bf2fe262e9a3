// Command perfbench is the repository's benchmark. It drives the
// simulator from outside, through the public functions of the
// experiments, sim, solver, cost, engine and serve packages, on one of
// three workloads:
//
//	paper-suite  every quick-suite paper experiment, 2 workers, cold caches
//	solve-cold   a seeded stream of distinct scenario solves, one at a time
//	serve-zipf   two closed-loop clients replaying a seeded Zipf request mix
//	             against the mapping service on a loopback listener
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
//
// Every measured pass runs in a fresh child process (the same binary,
// re-invoked with -role), so caches start cold and set-up time is
// measured from process start. A pass does a fixed amount of work (a
// suite, a set of solves, a request sequence), and passes repeat until
// the window closes. With --trace 0 the last line of standard output
// is a JSON object with the end-to-end metrics; with --trace 1 the run
// alternates untraced and traced passes, and the JSON carries the
// per-layer metrics, the per-layer share of wall clock and the tracing
// overhead. Output checks run in every mode; a
// failed check exits non-zero without printing the JSON line.
//
// -regen rewrites the expected output files under perfbench/expected
// from the current program.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// expectedDir holds the output checks' reference files, relative to
// the repository root the benchmark runs from.
const expectedDir = "perfbench/expected"

// setupSamples is how many times a run measures set-up (process start
// to the first timed operation); setup_s is their median.
const setupSamples = 51

// workload is one benchmark input set, run inside a child process.
type workload interface {
	// setup readies the program; the parent's set-up clock stops when
	// it returns.
	setup(seed int64) error
	// measure builds the workload's inputs from the seed, runs the
	// pass's operations and checks their outputs. tr is nil on
	// untraced passes.
	measure(tr *tracer) (*report, error)
	// replay re-runs the workload's inputs through the entry points
	// of layers a top-level call hides (traced passes only).
	replay(tr *tracer, rep *report) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper-suite":
		return &paperSuite{}, nil
	case "solve-cold":
		return &solveCold{}, nil
	case "serve-zipf":
		return &serveZipf{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have paper-suite, solve-cold, serve-zipf)", name)
}

// report is what a measuring child sends its parent.
type report struct {
	// LatMS holds every attempted operation's latency; a failed or
	// refused operation is recorded as -1 and ranks as infinitely
	// slow in the percentiles.
	LatMS     []float64 `json:"lat_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// WindowS runs from the first operation's start to the last
	// operation's end.
	WindowS float64 `json:"window_s"`
	// CPUMS holds the pass's process CPU time (see cpuTime) per
	// completed operation, one sample per pass.
	CPUMS []float64 `json:"cpu_ms"`
	// Problem is the first output-check failure ("" when correct).
	Problem string `json:"problem,omitempty"`
	// Named carries workload-specific end-to-end figures under the
	// names the report prints (paper_err_pct, ...).
	Named map[string]float64 `json:"named,omitempty"`
	// Layers carries per-layer metrics (traced passes).
	Layers map[string]float64 `json:"layers,omitempty"`
	// Served carries serve-zipf's distinct canonical responses by
	// request id, for the parent to check (see checkServed).
	Served map[string]json.RawMessage `json:"served,omitempty"`
}

func (r *report) fail(format string, args ...any) {
	if r.Problem == "" {
		r.Problem = fmt.Sprintf(format, args...)
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "paper-suite | solve-cold | serve-zipf")
		seed    = flag.Int64("seed", 1, "input generator seed")
		seconds = flag.Int("seconds", 20, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		role    = flag.String("role", "", "internal: probe | worker")
		regen   = flag.Bool("regen", false, "rewrite the expected output files and exit")
	)
	flag.Parse()
	if *regen {
		if err := regenerate(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := newWorkload(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *role != "" {
		err = child(w, *name, *role, *seed, *trace == 1)
	} else {
		err = parent(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// child runs inside a spawned process: set up, signal READY, then (as
// a worker) measure and print the report as one JSON line.
func child(w workload, name, role string, seed int64, traced bool) error {
	if err := w.setup(seed); err != nil {
		return fmt.Errorf("%s setup: %w", name, err)
	}
	fmt.Println("READY")
	if role == "probe" {
		return nil
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rep, err := w.measure(tr)
	if err != nil {
		return err
	}
	if tr != nil {
		if err := w.replay(tr, rep); err != nil {
			return err
		}
		tr.attribute(rep)
		if err := tr.write(fmt.Sprintf(".bench_build/traces/%s-seed%d.json", name, seed)); err != nil {
			return err
		}
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// pass is one child process's outcome as the parent saw it.
type pass struct {
	setup  time.Duration
	rssMB  float64
	report *report
}

// spawn runs the benchmark binary as a child and times its set-up
// from before the exec to its READY line.
func spawn(name, role string, seed int64, traced bool) (pass, error) {
	exe, err := os.Executable()
	if err != nil {
		return pass{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-role", role, "-workload", name,
		"-seed", fmt.Sprint(seed), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return pass{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return pass{}, err
	}
	var p pass
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "READY" && p.setup == 0 {
			p.setup = time.Since(start)
			continue
		}
		last = line
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return pass{}, fmt.Errorf("%s %s: %w", name, role, err)
	}
	if scanErr != nil {
		return pass{}, scanErr
	}
	if p.setup == 0 {
		return pass{}, fmt.Errorf("%s %s: child never became ready", name, role)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if role == "worker" {
		p.report = &report{}
		if err := json.Unmarshal([]byte(last), p.report); err != nil {
			return pass{}, fmt.Errorf("%s worker report: %w", name, err)
		}
	}
	return p, nil
}

// workers runs measuring passes, each in a fresh process (caches start
// cold) doing the workload's fixed work, until the window closes: a
// further pass starts only if one more of the last pass's length fits.
// once runs a single pass.
func workers(name string, seed int64, seconds int, traced, once bool) ([]pass, error) {
	var out []pass
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for {
		t0 := time.Now()
		p, err := spawn(name, "worker", seed, traced)
		if err != nil {
			return nil, err
		}
		checkServed(p.report)
		if p.report.Problem != "" {
			return nil, fmt.Errorf("%s output check failed: %s", name, p.report.Problem)
		}
		out = append(out, p)
		if once || time.Now().Add(time.Since(t0)).After(deadline) {
			return out, nil
		}
	}
}

// merged folds the passes of one run into a single report; per-layer
// figures are averaged over the passes that report them.
func merged(ps []pass) *report {
	m := &report{Named: map[string]float64{}, Layers: map[string]float64{}}
	seen := map[string]int{}
	for _, p := range ps {
		r := p.report
		m.LatMS = append(m.LatMS, r.LatMS...)
		m.Attempted += r.Attempted
		m.Failed += r.Failed
		m.WindowS += r.WindowS
		m.CPUMS = append(m.CPUMS, r.CPUMS...)
		for k, v := range r.Named {
			m.Named[k] = v
		}
		for k, v := range r.Layers {
			m.Layers[k] += v
			seen[k]++
		}
	}
	for k, n := range seen {
		m.Layers[k] /= float64(n)
	}
	return m
}

// metric is one value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tailQuantile is each workload's tail percentile. solve-cold (p90 of
// ≥100 solves) and serve-zipf (p99 of ≥1000 requests) keep at least
// ten samples beyond it; paper-suite, with 3–4 suites a run, reports
// its slowest suite.
var tailQuantile = map[string]float64{"paper-suite": 1, "solve-cold": 0.90, "serve-zipf": 0.99}

// endToEnd computes the gated metrics. Wall-clock latency and
// throughput move with the load other guests put on a shared host:
// between runs of the same code their spread exceeded the largest
// bound a metric may have. So the timed metric is CPU time per
// completed operation (cpuPerOp), which leaves out the time the host
// takes the CPU away, and the wall-clock figures are printed beside it
// (wallClock) without a bound.
func endToEnd(ps []pass, rep *report, setup []time.Duration) map[string]metric {
	var rss []float64
	for _, p := range ps {
		rss = append(rss, p.rssMB)
	}
	var setups []float64
	for _, d := range setup {
		setups = append(setups, d.Seconds())
	}
	return map[string]metric{
		"setup_s":       {median(setups), "s"},
		"peak_rss_mb":   {median(rss), "MB"},
		"cpu_per_op_ms": {cpuPerOp(rep), "ms"},
	}
}

// cpuPerOp is the median over the report's passes of their CPU time
// per completed operation, in ms.
func cpuPerOp(r *report) float64 {
	return median(r.CPUMS)
}

// cpuTime is the process's CPU time so far: user plus system time of
// all its threads. The kernel leaves out steal time, when the host
// runs another guest on the CPU, and time spent waiting to run, so it
// moves less than wall clock with the load of a shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// wallClock lists the workload's wall-clock figures under the names
// its users know them by; they are printed, not gated (see endToEnd).
func wallClock(name string, rep *report) []string {
	lat := latencies(rep.LatMS)
	p50, tail := quantile(lat, 0.5), quantile(lat, tailQuantile[name])
	tput := float64(rep.Attempted-rep.Failed) / rep.WindowS
	var out []string
	add := func(k string, v float64, unit string) { out = append(out, fmt.Sprintf("%-22s %14.4f %s", k, v, unit)) }
	switch name {
	case "paper-suite":
		add("suite_s", p50/1e3, "s")
		add("suite_max_s", tail/1e3, "s")
		add("paper_err_pct", rep.Named["paper_err_pct"], "%")
	case "solve-cold":
		add("solve_p50_ms", p50, "ms")
		add("solve_p90_ms", tail, "ms")
		add("solves_per_s", tput, "1/s")
	case "serve-zipf":
		add("serve_rps", tput, "1/s")
		add("serve_p50_ms", p50, "ms")
		add("serve_p99_ms", tail, "ms")
		add("first_seen_requests", rep.Named["first_seen"], "count")
	}
	return out
}

func parent(name string, seed int64, seconds int, traced bool) error {
	if !traced {
		ps, err := workers(name, seed, seconds, false, false)
		if err != nil {
			return err
		}
		var setup []time.Duration
		for _, p := range ps {
			setup = append(setup, p.setup)
		}
		for len(setup) < setupSamples {
			p, err := spawn(name, "probe", seed, false)
			if err != nil {
				return err
			}
			setup = append(setup, p.setup)
		}
		rep := merged(ps)
		e := endToEnd(ps, rep, setup)
		fmt.Printf("workload %s  seed %d  passes %d  ops attempted %d  succeeded %d  failed %d\n",
			name, seed, len(ps), rep.Attempted, rep.Attempted-rep.Failed, rep.Failed)
		fmt.Printf("%-22s %14.4f ms  (median of %.1f, one per pass)\n", "cpu_per_op_ms", e["cpu_per_op_ms"].Value, rep.CPUMS)
		for _, l := range wallClock(name, rep) {
			fmt.Println(l)
		}
		return printResult(rep, e)
	}

	// Traced run: four single passes, untraced, traced, traced,
	// untraced. Each pass runs the same code path; the tracing
	// overhead is the median over the two (untraced, traced) pairs of
	// the difference of their CPU time per operation, and the order
	// cancels a steady drift of the host.
	var plain, tps []pass
	var diffs []float64
	for _, traced := range []bool{false, true, true, false} {
		ps, err := workers(name, seed, seconds, traced, true)
		if err != nil {
			return err
		}
		if traced {
			tps = append(tps, ps...)
		} else {
			plain = append(plain, ps...)
		}
	}
	for i := range plain {
		diffs = append(diffs, cpuPerOp(tps[i].report)-cpuPerOp(plain[i].report))
	}
	base, rep := merged(plain), merged(tps)
	b, t := cpuPerOp(base), cpuPerOp(rep)
	rep.Layers["trace.overhead_ms"] = median(diffs)
	rep.Layers["trace.overhead_pct"] = 100 * median(diffs) / b
	out := map[string]metric{}
	for _, l := range layerMetrics {
		out[l.name] = metric{rep.Layers[l.name], l.unit}
	}
	fmt.Printf("workload %s  seed %d  traced  ops attempted %d  succeeded %d  failed %d\n",
		name, seed, rep.Attempted, rep.Attempted-rep.Failed, rep.Failed)
	fmt.Printf("%-36s %14.4f ms untraced, %.4f ms traced\n", "CPU time per operation", b, t)
	for _, l := range layerMetrics {
		if v := rep.Layers[l.name]; v != 0 {
			fmt.Printf("%-36s %14.4f %s\n", l.name, v, l.unit)
		}
	}
	return printResult(rep, out)
}

func printResult(rep *report, metrics map[string]metric) error {
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	buf, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// latencies maps failed operations (-1) to +Inf and sorts.
func latencies(ms []float64) []float64 {
	out := make([]float64, len(ms))
	for i, v := range ms {
		if v < 0 {
			v = math.Inf(1)
		}
		out[i] = v
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// firstDiff names the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var a, b string
		if i < len(g) {
			a = g[i]
		}
		if i < len(w) {
			b = w[i]
		}
		if a != b {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, a, b)
		}
	}
	return ""
}
