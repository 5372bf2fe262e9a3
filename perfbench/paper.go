package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"temp/internal/baselines"
	"temp/internal/engine"
	"temp/internal/experiments"
	"temp/internal/hw"
	"temp/internal/model"
)

// experimentIDs name the per-layer metrics experiments.<id>_s: the
// experiments `tempbench -quick` regenerates, in the order
// experiments.AllTimed returns them. A run whose tables carry other ids
// fails its output check, so the list cannot drift from the program's.
var experimentIDs = []string{"fig4b", "fig4c", "fig5", "fig7", "fig9", "fig13", "fig14",
	"fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "tabH"}

// wallClockCols are the table columns that hold host timings, masked
// before tables are compared with the expected files.
var wallClockCols = map[string][]string{
	"fig21": {"per-call"},
	"tabH":  {"dls(ms)", "exh(ms)", "speedup"},
}

// wallClockNote matches the one note derived from host timings.
var wallClockNote = regexp.MustCompile(`^mean projected speedup \d+x`)

// paperSuite is experiments.AllTimed(true), the call behind
// `tempbench -quick`, on a 2-worker engine whose caches start cold
// (one suite per process).
type paperSuite struct{}

const paperWorkers = 2

func (p *paperSuite) setup(int64) error {
	// The suite's inputs are the paper's fixed quick set; the seed
	// selects nothing.
	engine.SetWorkers(paperWorkers)
	return nil
}

func (p *paperSuite) measure(tr *tracer) (*report, error) {
	c := snapshot()
	start, cpu0 := time.Now(), cpuTime()
	tabs, durs, err := experiments.AllTimed(true)
	d, cpu := time.Since(start), cpuTime()-cpu0
	rep := &report{Attempted: 1, WindowS: d.Seconds(), CPUMS: []float64{perCall(cpu, 1, time.Millisecond)}, Named: map[string]float64{}, Layers: map[string]float64{}}
	if err != nil {
		rep.Failed = 1
		rep.LatMS = []float64{-1}
		rep.fail("%v", err)
		return rep, nil
	}
	rep.LatMS = []float64{perCall(d, 1, time.Millisecond)}
	for i, t := range tabs {
		if i >= len(experimentIDs) || t.ID != experimentIDs[i] {
			rep.fail("experiment %d is %q; the per-layer metrics name %v", i, t.ID, experimentIDs)
			break
		}
	}
	want, err := os.ReadFile(filepath.Join(expectedDir, "paper-suite.txt"))
	if err != nil {
		return nil, err
	}
	if diff := firstDiff(renderMasked(tabs), string(want)); diff != "" {
		rep.fail("paper-suite tables differ from %s/paper-suite.txt: %s", expectedDir, diff)
	}
	errPct, err := paperError(tabs)
	if err != nil {
		rep.fail("%v", err)
	}
	rep.Named["paper_err_pct"] = errPct
	if tr != nil {
		counterLayers(rep, c, snapshot())
		// AllTimed reports each experiment's duration, not its start;
		// the spans are placed at the suite's start. They are roots, so
		// their self time is their duration and the shares split the
		// summed experiment time.
		for i, t := range tabs {
			tr.add("experiments."+t.ID, -1, start, start.Add(durs[i]))
			rep.Layers["experiments."+t.ID+"_s"] = durs[i].Seconds()
		}
	}
	return rep, nil
}

// replay prices fig13's quick models on the evaluation wafer through
// the cost stack, and replays fig21's surrogate training.
func (p *paperSuite) replay(tr *tracer, rep *report) error {
	w := hw.EvaluationWafer()
	var ins []pricingInput
	for _, m := range []model.Config{model.GPT3_6_7B(), model.Llama3_70B(), model.GPT3_175B()} {
		r, err := baselines.Best(baselines.TEMP(), m, w)
		if err != nil {
			return err
		}
		ins = append(ins, pricingInput{m: m, w: w, cfgs: tempSpace(w), chosen: r.Config})
	}
	if err := replayPricing(tr, rep, ins); err != nil {
		return err
	}
	replaySurrogate(tr, rep)
	return nil
}

// renderMasked renders the tables with wall-clock cells replaced by
// "*", the form the expected file holds.
func renderMasked(tabs []*experiments.Table) string {
	var b strings.Builder
	for _, t := range tabs {
		cp := *t
		cols := map[int]bool{}
		for i, h := range t.Headers {
			for _, m := range wallClockCols[t.ID] {
				if h == m {
					cols[i] = true
				}
			}
		}
		cp.Rows = nil
		for _, r := range t.Rows {
			row := append([]string(nil), r...)
			for i := range row {
				if cols[i] {
					row[i] = "*"
				}
			}
			cp.Rows = append(cp.Rows, row)
		}
		cp.Notes = nil
		for _, n := range t.Notes {
			cp.Notes = append(cp.Notes, wallClockNote.ReplaceAllString(n, "mean projected speedup *"))
		}
		cp.Fprint(&b)
	}
	return b.String()
}

// headline is one of the paper's headline ratios, read from a table
// note.
type headline struct {
	id    string
	re    *regexp.Regexp
	paper float64
}

var headlines = []headline{
	{"fig13", regexp.MustCompile(`average TEMP speedup ([0-9.]+)x`), 1.7},
	{"fig15", regexp.MustCompile(`Wafer\+TEMP speedup over GPU\+MeSP: ([0-9.]+)x`), 1.16},
	{"fig16", regexp.MustCompile(`mean \+TATP gain ([0-9.]+)x`), 1.21},
	{"fig16", regexp.MustCompile(`mean \+TCME gain ([0-9.]+)x`), 1.14},
}

// paperError is the mean |simulated/paper - 1| over the headline
// ratios, in percent.
func paperError(tabs []*experiments.Table) (float64, error) {
	var sum float64
	for _, h := range headlines {
		found := false
		for _, t := range tabs {
			if t.ID != h.id {
				continue
			}
			for _, n := range t.Notes {
				if m := h.re.FindStringSubmatch(n); m != nil {
					v, err := strconv.ParseFloat(m[1], 64)
					if err != nil {
						return 0, err
					}
					sum += math.Abs(v/h.paper - 1)
					found = true
				}
			}
		}
		if !found {
			return 0, fmt.Errorf("%s: headline %q not found", h.id, h.re)
		}
	}
	return 100 * sum / float64(len(headlines)), nil
}
