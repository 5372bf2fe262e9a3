// Package cli is the process runtime the TEMP binaries (tempbench,
// tempsim, tempsolve, tempserve) share around the partition → map →
// solve pipeline: the flags every binary registers (-workers,
// -memo-dir, -distribute, -worker-mode, -list-*), the evaluation
// engine's pool and persistent memo, the worker side of the
// distributed fabric, and the coordinator's spawned-worker command
// line. Flags that mean something different per binary stay in the
// binary.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"temp/internal/cost"
	"temp/internal/distrib"
	"temp/internal/engine"
	"temp/internal/fault"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/solver"
	"temp/internal/spec"
)

// registries are the -list-* flags a binary may register, in the
// precedence that applies when several are set.
var registries = []struct {
	name, usage string
	names       func() []string
}{
	{"backends", "list registered cost backends", cost.BackendNames},
	{"models", "list registered model names", spec.Models.Names},
	{"wafers", "list registered wafer names", spec.Wafers.Names},
	{"systems", "list registered system names", spec.Systems.Names},
	{"strategies", "list registered search strategies", solver.StrategyNames},
}

// Runtime holds the shared flags of one binary and the resources
// they open. Build it with New before flag.Parse, then call Start.
type Runtime struct {
	Workers    int
	MemoDir    string
	Distribute int

	name       string // prefixes every diagnostic the runtime prints
	workerMode bool
	connect    string // -connect and -redial, registered by ConnectFlags
	redial     int
	lists      []*bool // indexed like registries; nil where not registered
	memo       *engine.DiskMemo
	fab        *distrib.Fabric // what Fabric attached; Check shuts it down
}

// New registers the shared flags on flag.CommandLine: -workers,
// -memo-dir (default $TEMPMEMO), -distribute with the binary's own
// usage text, -worker-mode, and one -list-<name> flag per named
// registry (backends, models, wafers, systems, strategies).
func New(name, distributeUsage string, lists ...string) *Runtime {
	r := &Runtime{name: name, lists: make([]*bool, len(registries))}
	flag.IntVar(&r.Workers, "workers", runtime.GOMAXPROCS(0), "evaluation worker-pool size")
	flag.StringVar(&r.MemoDir, "memo-dir", os.Getenv("TEMPMEMO"),
		"persist priced results in this directory and warm-start from them (default $TEMPMEMO)")
	flag.IntVar(&r.Distribute, "distribute", 0, distributeUsage)
	flag.BoolVar(&r.workerMode, "worker-mode", false, "internal: serve shards from a coordinator over stdio")
	for _, l := range lists {
		i := registryIndex(l)
		r.lists[i] = flag.Bool("list-"+l, false, registries[i].usage)
	}
	return r
}

func registryIndex(name string) int {
	for i, reg := range registries {
		if reg.name == name {
			return i
		}
	}
	panic("cli: unknown registry " + name)
}

// ConnectFlags registers -connect and -redial, which let a worker dial
// a coordinator's TCP listener instead of serving over stdio.
func (r *Runtime) ConnectFlags() *Runtime {
	flag.StringVar(&r.connect, "connect", "", "worker: dial the coordinator's -listen address and serve shards")
	flag.IntVar(&r.redial, "redial", 10, "-connect: re-dial attempts after connection loss with exponential backoff (0 = single attempt)")
	return r
}

// Start applies the parsed shared flags: it sizes the engine's worker
// pool and attaches the -memo-dir persistent memo (Close releases
// it). It reports whether the process's work is already done: the
// process ran as a fabric worker — setup (may be nil) installs the
// binary's replicated overrides first — or printed the registry a
// -list-* flag names. Failures exit the process.
func (r *Runtime) Start(setup func() error) bool {
	engine.SetWorkers(r.Workers)
	if r.MemoDir != "" {
		dm, err := engine.AttachDiskMemo(r.MemoDir)
		r.Check(err)
		r.memo = dm
	}
	if r.workerMode || r.connect != "" {
		var err error
		if setup != nil {
			err = setup()
		}
		if err == nil {
			switch {
			case r.connect != "" && r.redial > 0:
				err = distrib.DialAndServe(r.connect, distrib.RedialOptions{Attempts: r.redial})
			case r.connect != "":
				err = distrib.ConnectAndServe(r.connect)
			default:
				err = distrib.ServeStdio()
			}
		}
		if err != nil {
			r.Check(fmt.Errorf("worker: %w", err))
		}
		return true
	}
	for i, set := range r.lists {
		if set != nil && *set {
			for _, n := range registries[i].names() {
				fmt.Println(n)
			}
			return true
		}
	}
	return false
}

// Close releases the persistent memo Start attached.
func (r *Runtime) Close() {
	if r.memo != nil {
		r.memo.Close()
	}
}

// Check exits the process with status 1 after printing a non-nil err
// under the binary's name. os.Exit skips deferred calls, so Check
// first shuts down the fabric Fabric attached — its spawned workers
// would otherwise die on EOF — and closes the memo Start attached.
func (r *Runtime) Check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
		r.fab.Shutdown()
		r.Close()
		os.Exit(1)
	}
}

// Fabric attaches the workers o asks for: o.Workers spawned copies of
// this executable (see workerCommand; memoDir and tail complete their
// command line), or TCP workers accepted on o.Listen. It returns nil —
// run in-process — when o asks for none. Attach failures degrade with
// a warning rather than abort: the fabric runs with the workers that
// came up, possibly none.
func (r *Runtime) Fabric(o distrib.Options, memoDir string, tail ...string) *distrib.Fabric {
	if o.Workers <= 0 && o.Listen == "" {
		return nil
	}
	if o.Listen == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: distrib: %v\n", r.name, err)
			return nil
		}
		o.Command = workerCommand(exe, r.Workers, memoDir, tail)
	}
	f, err := distrib.New(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: distrib: %v\n", r.name, err)
	}
	r.fab = f
	return f
}

// workerCommand is the command line of a spawned worker: exe in
// -worker-mode with the coordinator's -workers, its -memo-dir when
// memoDir is set, then the binary's passthrough tail.
func workerCommand(exe string, workers int, memoDir string, tail []string) []string {
	cmd := []string{exe, "-worker-mode", "-workers", fmt.Sprint(workers)}
	if memoDir != "" {
		cmd = append(cmd, "-memo-dir", memoDir)
	}
	return append(cmd, tail...)
}

// SpecDistrib fills the fabric options the CLI left unset from the
// first distrib block a scenario batch declares: worker count,
// heartbeat cadence and missed-beat limit only when the flags left
// them zero, memo shipping when either asks for it, and shard size and
// retries (which no flag sets) always.
func SpecDistrib(o distrib.Options, specs []spec.ScenarioSpec) distrib.Options {
	for _, s := range specs {
		d := s.Distrib
		if d == nil {
			continue
		}
		if o.Workers == 0 {
			o.Workers = d.Workers
		}
		o.ShardSize, o.Retries = d.ShardSize, d.Retries
		if o.Heartbeat == 0 {
			o.Heartbeat = time.Duration(d.HeartbeatMS) * time.Millisecond
		}
		if o.MissedBeats == 0 {
			o.MissedBeats = d.MissedBeats
		}
		o.SyncMemo = o.SyncMemo || d.SyncMemo
		break
	}
	return o
}

// AttachResilience applies the -repair and -fault-campaign flags to a
// scenario batch: -repair rides on an existing fault stage;
// -fault-campaign adds one (a campaign needs no injection rates, so a
// missing fault stage is created empty).
func AttachResilience(specs []spec.ScenarioSpec, repair, campaign bool) {
	for i := range specs {
		ss := &specs[i]
		if repair && ss.Fault != nil && ss.Fault.Repair == nil {
			ss.Fault.Repair = &spec.RepairSpec{}
		}
		if campaign {
			if ss.Fault == nil {
				ss.Fault = &spec.FaultSpec{}
			}
			if ss.Fault.Campaign == nil {
				ss.Fault.Campaign = &spec.CampaignSpec{}
			}
		}
	}
}

// PrintCampaign renders a survivability grid under label.
func PrintCampaign(label string, cr *fault.CampaignResult) {
	fmt.Printf("%s %s on %s, config %s (%d trials/cell, seed %d, backend %s)\n",
		label, cr.Model, cr.Wafer, cr.Config, cr.Trials, cr.Seed, cr.Backend)
	for _, c := range cr.Cells {
		fmt.Printf("  link %4.0f%% core %4.0f%%: functional %5.1f%%  mean %.3f  p5 %.3f  min %.3f\n",
			c.LinkRate*100, c.CoreRate*100, c.FunctionalRate*100, c.MeanNorm, c.P5Norm, c.MinNorm)
	}
}

// WriteJSON writes v to path as indented JSON with a trailing newline.
func WriteJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Target is the -model/-wafer/-rows/-cols selection of binaries that
// evaluate one model on one wafer.
type Target struct {
	Model, Wafer string
	Rows, Cols   int
}

// TargetFlags registers the Target flags on flag.CommandLine.
func TargetFlags() *Target {
	t := &Target{}
	flag.StringVar(&t.Model, "model", "gpt3-6.7b", "registered model name (-list-models)")
	flag.StringVar(&t.Wafer, "wafer", "", "registered wafer name (-list-wafers); overrides -rows/-cols")
	flag.IntVar(&t.Rows, "rows", 4, "wafer die rows")
	flag.IntVar(&t.Cols, "cols", 8, "wafer die columns")
	return t
}

// Resolve looks the model and wafer up in the registries; without
// -wafer it is the evaluation wafer resized to -rows × -cols.
func (t *Target) Resolve() (model.Config, hw.Wafer, error) {
	m, err := spec.LookupModel(t.Model)
	if err != nil {
		return m, hw.Wafer{}, err
	}
	if t.Wafer == "" {
		return m, hw.WaferWithGrid(t.Rows, t.Cols), nil
	}
	w, err := spec.LookupWafer(t.Wafer)
	return m, w, err
}
