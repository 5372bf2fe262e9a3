package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"temp/internal/distrib"
	"temp/internal/spec"
)

// TestWorkerCommand pins the command line each binary spawns its
// workers with: the shared -worker-mode/-workers/-memo-dir head, then
// the binary's passthrough tail.
func TestWorkerCommand(t *testing.T) {
	cases := []struct {
		name    string
		memoDir string
		tail    []string
		want    string
	}{
		{"tempbench", "memo", []string{"-model", "gpt3-6.7b,llama2-7b", "-wafer", "wsc-6x8", "-backend", "replay"},
			"/bin/x -worker-mode -workers 3 -memo-dir memo -model gpt3-6.7b,llama2-7b -wafer wsc-6x8 -backend replay"},
		// tempbench keeps sharing -memo-dir under -sync-memo.
		{"tempbench no overrides", "memo", nil, "/bin/x -worker-mode -workers 3 -memo-dir memo"},
		{"tempsim, tempsolve", "memo", nil, "/bin/x -worker-mode -workers 3 -memo-dir memo"},
		{"no memo", "", nil, "/bin/x -worker-mode -workers 3"},
		// tempserve withholds -memo-dir under -sync-memo: workers get
		// the warm memo over the wire instead.
		{"tempserve -sync-memo", "", nil, "/bin/x -worker-mode -workers 3"},
	}
	for _, tc := range cases {
		got := strings.Join(workerCommand("/bin/x", 3, tc.memoDir, tc.tail), " ")
		if got != tc.want {
			t.Errorf("%s: command %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestFabricNone: no -distribute, no listen address and no spec block
// means no fabric, so the batch runs in-process.
func TestFabricNone(t *testing.T) {
	r := &Runtime{name: "test", Workers: 2}
	if f := r.Fabric(SpecDistrib(distrib.Options{}, nil), ""); f != nil {
		t.Fatalf("fabric %v built with no workers asked for", f)
	}
}

// TestSpecDistrib: the first spec-declared distrib block fills what
// the flags left unset; the flags win where they are set.
func TestSpecDistrib(t *testing.T) {
	specs := []spec.ScenarioSpec{
		{Name: "plain"},
		{Name: "first", Distrib: &spec.DistribSpec{Workers: 4, ShardSize: 2, Retries: 5, HeartbeatMS: 250, MissedBeats: 6, SyncMemo: true}},
		{Name: "second", Distrib: &spec.DistribSpec{Workers: 9, ShardSize: 7}},
	}
	got := SpecDistrib(distrib.Options{}, specs)
	want := distrib.Options{Workers: 4, ShardSize: 2, Retries: 5, Heartbeat: 250 * time.Millisecond, MissedBeats: 6, SyncMemo: true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spec only: %+v, want %+v", got, want)
	}
	flags := distrib.Options{Workers: 2, Listen: "127.0.0.1:0", Heartbeat: time.Second, MissedBeats: 2}
	got = SpecDistrib(flags, specs)
	want = distrib.Options{Workers: 2, Listen: "127.0.0.1:0", ShardSize: 2, Retries: 5, Heartbeat: time.Second, MissedBeats: 2, SyncMemo: true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags set: %+v, want %+v", got, want)
	}
	if got := SpecDistrib(flags, specs[:1]); !reflect.DeepEqual(got, flags) {
		t.Errorf("no distrib block: %+v, want the flags %+v", got, flags)
	}
}

// TestAttachResilience: -repair only rides on an existing fault stage;
// -fault-campaign adds a fault stage where there is none.
func TestAttachResilience(t *testing.T) {
	specs := []spec.ScenarioSpec{{Name: "clean"}, {Name: "faulted", Fault: &spec.FaultSpec{LinkRate: 0.1}}}
	AttachResilience(specs, true, false)
	if specs[0].Fault != nil || specs[1].Fault.Repair == nil {
		t.Fatalf("-repair: %+v %+v", specs[0].Fault, specs[1].Fault)
	}
	AttachResilience(specs, false, true)
	for _, s := range specs {
		if s.Fault == nil || s.Fault.Campaign == nil {
			t.Errorf("%s: -fault-campaign added no campaign stage", s.Name)
		}
	}
}

// TestTargetResolve: -wafer wins over -rows/-cols; without it the
// grid builds the reference wafer; unknown names are errors.
func TestTargetResolve(t *testing.T) {
	m, w, err := (&Target{Model: "gpt3-6.7b", Rows: 2, Cols: 4}).Resolve()
	if err != nil || m.Name == "" || w.Rows != 2 || w.Cols != 4 {
		t.Fatalf("grid: %v %dx%d %v", m.Name, w.Rows, w.Cols, err)
	}
	_, w, err = (&Target{Model: "gpt3-6.7b", Wafer: "wsc-6x8", Rows: 2, Cols: 4}).Resolve()
	if err != nil || w.Rows != 6 || w.Cols != 8 {
		t.Fatalf("-wafer: %dx%d %v", w.Rows, w.Cols, err)
	}
	if _, _, err := (&Target{Model: "no-such-model", Rows: 4, Cols: 8}).Resolve(); err == nil {
		t.Error("unknown model resolved")
	}
	if _, _, err := (&Target{Model: "gpt3-6.7b", Wafer: "no-such-wafer"}).Resolve(); err == nil {
		t.Error("unknown wafer resolved")
	}
}

// TestWriteJSON: indented JSON with a trailing newline.
func TestWriteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteJSON(path, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{\n  \"a\": 1\n}\n" {
		t.Errorf("wrote %q", data)
	}
	var v map[string]int
	if err := json.Unmarshal(data, &v); err != nil || v["a"] != 1 {
		t.Errorf("round trip: %v %v", v, err)
	}
}
