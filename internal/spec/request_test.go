package spec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseRequestStrict accepts well-formed envelopes and rejects
// unknown fields.
func TestParseRequest(t *testing.T) {
	good := `{
		"id": "r1", "tenant": "a",
		"scenario": {"model": "gpt3-6.7b", "wafer": "wsc-4x8"},
		"budget": {"evals": 1000, "time": "5s"},
		"stream": true
	}`
	r, err := ParseRequest([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.ID != "r1" || r.Tenant != "a" || !r.Stream || r.Scenario == nil || r.Budget.Evals != 1000 {
		t.Errorf("parsed request = %+v", r)
	}
	if n := len(r.Specs()); n != 1 {
		t.Errorf("Specs() returned %d scenarios, want 1", n)
	}

	if _, err := ParseRequest([]byte(`{"scenarioo": {}}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseRequest([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestRequestValidate covers the envelope's structural rules.
func TestRequestValidate(t *testing.T) {
	sc := ScenarioSpec{Model: ModelRef{Name: "gpt3-6.7b"}, Wafer: WaferRef{Name: "wsc-4x8"}}
	cases := []struct {
		name    string
		req     RequestSpec
		wantErr string
	}{
		{name: "single", req: RequestSpec{Scenario: &sc}},
		{name: "batch", req: RequestSpec{Scenarios: []ScenarioSpec{sc, sc}}},
		{name: "empty", req: RequestSpec{}, wantErr: "no scenarios"},
		{name: "both-forms", req: RequestSpec{Scenario: &sc, Scenarios: []ScenarioSpec{sc}},
			wantErr: "both scenario and scenarios"},
		{name: "bad-budget", req: RequestSpec{Scenario: &sc, Budget: &BudgetSpec{Time: "-5s"}},
			wantErr: "not positive"},
		{name: "bad-scenario", req: RequestSpec{Scenario: &ScenarioSpec{Model: ModelRef{Name: "no-such"}}},
			wantErr: "scenario 0"},
	}
	for _, tc := range cases {
		err := tc.req.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestClampBudget checks the request-level clamp only tightens.
func TestClampBudget(t *testing.T) {
	cases := []struct {
		name        string
		b, clamp    BudgetSpec
		wantEvals   int
		wantTime    string
		wantCkpoint int
	}{
		{name: "zero-clamp", b: BudgetSpec{Evals: 100, Time: "5s", Checkpoint: 3},
			wantEvals: 100, wantTime: "5s", wantCkpoint: 3},
		{name: "tighter-evals", b: BudgetSpec{Evals: 100}, clamp: BudgetSpec{Evals: 50}, wantEvals: 50},
		{name: "looser-evals", b: BudgetSpec{Evals: 100}, clamp: BudgetSpec{Evals: 500}, wantEvals: 100},
		{name: "unset-evals", clamp: BudgetSpec{Evals: 500}, wantEvals: 500},
		{name: "tighter-time", b: BudgetSpec{Time: "30s"}, clamp: BudgetSpec{Time: "5s"}, wantTime: "5s"},
		{name: "looser-time", b: BudgetSpec{Time: "5s"}, clamp: BudgetSpec{Time: "30s"}, wantTime: "5s"},
		{name: "unset-time", clamp: BudgetSpec{Time: "30s"}, wantTime: "30s"},
		{name: "checkpoint-keeps-own", b: BudgetSpec{Checkpoint: 7}, clamp: BudgetSpec{Checkpoint: 100}, wantCkpoint: 7},
		{name: "checkpoint-fills", clamp: BudgetSpec{Checkpoint: 100}, wantCkpoint: 100},
	}
	for _, tc := range cases {
		got := ClampBudget(tc.b, tc.clamp)
		if got.Evals != tc.wantEvals || got.Time != tc.wantTime || got.Checkpoint != tc.wantCkpoint {
			t.Errorf("%s: ClampBudget(%+v, %+v) = %+v", tc.name, tc.b, tc.clamp, got)
		}
	}
}

// TestDieArrayBound: a request whose inline wafer asks for a die array
// beyond maxDieSide a side is rejected before anything is laid out,
// while every registered wafer and every example scenario still
// validates.
func TestDieArrayBound(t *testing.T) {
	huge := `{"scenario":{"model":"gpt3-6.7b","wafer":{"rows":1048576,"cols":1048576}}}`
	r, err := ParseRequest([]byte(huge))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("2^40-die wafer: Validate = %v, want a die-array bound error", err)
	}
	for _, tall := range []WaferSpec{{Rows: maxDieSide + 1, Cols: 1}, {Rows: 1, Cols: maxDieSide + 1}} {
		if err := tall.Validate(); err == nil {
			t.Errorf("%dx%d wafer validated", tall.Rows, tall.Cols)
		}
	}
	if err := (WaferSpec{Rows: maxDieSide, Cols: maxDieSide}).Validate(); err != nil {
		t.Errorf("%dx%d wafer rejected: %v", maxDieSide, maxDieSide, err)
	}

	for _, name := range Wafers.Names() {
		w, _ := Wafers.Lookup(name)
		if err := WaferSpecOf(w).Validate(); err != nil {
			t.Errorf("registered wafer %s: %v", name, err)
		}
	}
	ss, err := LoadScenario("../../examples/custom_scenario/scenario.json")
	if err == nil {
		err = ss.Validate()
	}
	if err != nil {
		t.Errorf("custom_scenario example: %v", err)
	}
	mix, err := filepath.Glob("../../examples/serve_mix/*.json")
	if err != nil || len(mix) == 0 {
		t.Fatalf("serve_mix examples: %v (%d files)", err, len(mix))
	}
	for _, path := range mix {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ParseRequest(data)
		if err == nil {
			err = r.Validate()
		}
		if err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
