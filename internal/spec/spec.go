// Package spec is the declarative scenario layer: serializable JSON
// descriptions of wafers, models, systems and evaluation scenarios,
// plus name-keyed registries pre-populated with every constructor the
// paper's evaluation uses. The layers above consume specs instead of
// hardcoded constructors — hw.Wafer, model.Config and
// baselines.System are all buildable from (and round-trippable to) a
// spec — so arbitrary hardware/workload/system combinations can be
// defined in JSON files, resolved against the registries, and
// batch-swept through the concurrent evaluation engine without
// recompiling.
//
// Every spec follows the same conventions: zero-valued fields default
// to the paper's Table I / §VIII-A reference values, Validate reports
// structural problems before anything is built, and the builders
// (Wafer, Model, System, Resolve) return fully-validated domain
// objects.
package spec

import (
	"fmt"
	"strings"

	"temp/internal/baselines"
	"temp/internal/cost"
	"temp/internal/hw"
	"temp/internal/model"
	"temp/internal/parallel"
)

// DieSpec describes one compute die. Zero fields inherit the Table I
// die (500 mm² logic, 2×72 GB HBM at 1 TB/s, 1800 TFLOPS).
type DieSpec struct {
	AreaMM2         float64 `json:"area_mm2,omitempty"`
	WidthMM         float64 `json:"width_mm,omitempty"`
	HeightMM        float64 `json:"height_mm,omitempty"`
	SRAMBytes       float64 `json:"sram_bytes,omitempty"`
	HBMBytes        float64 `json:"hbm_bytes,omitempty"`
	HBMStacks       int     `json:"hbm_stacks,omitempty"`
	HBMBandwidth    float64 `json:"hbm_bandwidth,omitempty"`
	HBMLatency      float64 `json:"hbm_latency,omitempty"`
	HBMEnergyPerBit float64 `json:"hbm_energy_per_bit,omitempty"`
	PeakFLOPS       float64 `json:"peak_flops,omitempty"`
	FLOPSPerWatt    float64 `json:"flops_per_watt,omitempty"`
	FrequencyHz     float64 `json:"frequency_hz,omitempty"`
	VectorFLOPS     float64 `json:"vector_flops,omitempty"`
}

// Die builds the hw.Die, filling defaults from Table I.
func (s DieSpec) Die() hw.Die {
	d := hw.TableIDie()
	if s.AreaMM2 > 0 {
		d.AreaMM2 = s.AreaMM2
	}
	if s.WidthMM > 0 {
		d.WidthMM = s.WidthMM
	}
	if s.HeightMM > 0 {
		d.HeightMM = s.HeightMM
	}
	if s.SRAMBytes > 0 {
		d.SRAMBytes = s.SRAMBytes
	}
	if s.HBMBytes > 0 {
		d.HBMBytes = s.HBMBytes
	}
	if s.HBMStacks > 0 {
		d.HBMStacks = s.HBMStacks
	}
	if s.HBMBandwidth > 0 {
		d.HBMBandwidth = s.HBMBandwidth
	}
	if s.HBMLatency > 0 {
		d.HBMLatency = s.HBMLatency
	}
	if s.HBMEnergyPerBit > 0 {
		d.HBMEnergyPerBit = s.HBMEnergyPerBit
	}
	if s.PeakFLOPS > 0 {
		d.PeakFLOPS = s.PeakFLOPS
		// Vector units track the PE array unless stated explicitly.
		d.VectorFLOPS = s.PeakFLOPS / 16
	}
	if s.FLOPSPerWatt > 0 {
		d.FLOPSPerWatt = s.FLOPSPerWatt
	}
	if s.FrequencyHz > 0 {
		d.FrequencyHz = s.FrequencyHz
	}
	if s.VectorFLOPS > 0 {
		d.VectorFLOPS = s.VectorFLOPS
	}
	return d
}

// DieSpecOf captures a die as a fully-explicit spec.
func DieSpecOf(d hw.Die) DieSpec {
	return DieSpec{
		AreaMM2: d.AreaMM2, WidthMM: d.WidthMM, HeightMM: d.HeightMM,
		SRAMBytes: d.SRAMBytes, HBMBytes: d.HBMBytes, HBMStacks: d.HBMStacks,
		HBMBandwidth: d.HBMBandwidth, HBMLatency: d.HBMLatency,
		HBMEnergyPerBit: d.HBMEnergyPerBit, PeakFLOPS: d.PeakFLOPS,
		FLOPSPerWatt: d.FLOPSPerWatt, FrequencyHz: d.FrequencyHz,
		VectorFLOPS: d.VectorFLOPS,
	}
}

// LinkSpec describes the D2D interconnect. Zero fields inherit the
// Table I link (4 TB/s, 200 ns, 5 pJ/bit, 32 MB granularity ramp).
type LinkSpec struct {
	Bandwidth    float64 `json:"bandwidth,omitempty"`
	Latency      float64 `json:"latency,omitempty"`
	EnergyPerBit float64 `json:"energy_per_bit,omitempty"`
	MaxReachMM   float64 `json:"max_reach_mm,omitempty"`
	FECLatency   float64 `json:"fec_latency,omitempty"`
	RampBytes    float64 `json:"ramp_bytes,omitempty"`
}

// Link builds the hw.D2D, filling defaults from Table I.
func (s LinkSpec) Link() hw.D2D {
	l := hw.TableID2D()
	if s.Bandwidth > 0 {
		l.Bandwidth = s.Bandwidth
	}
	if s.Latency > 0 {
		l.Latency = s.Latency
	}
	if s.EnergyPerBit > 0 {
		l.EnergyPerBit = s.EnergyPerBit
	}
	if s.MaxReachMM > 0 {
		l.MaxReachMM = s.MaxReachMM
	}
	if s.FECLatency > 0 {
		l.FECLatency = s.FECLatency
	}
	if s.RampBytes > 0 {
		l.RampBytes = s.RampBytes
	}
	return l
}

// LinkSpecOf captures a link as a fully-explicit spec.
func LinkSpecOf(l hw.D2D) LinkSpec {
	return LinkSpec{
		Bandwidth: l.Bandwidth, Latency: l.Latency,
		EnergyPerBit: l.EnergyPerBit, MaxReachMM: l.MaxReachMM,
		FECLatency: l.FECLatency, RampBytes: l.RampBytes,
	}
}

// WaferSpec describes a wafer-scale chip: the die array plus optional
// die/link/IO overrides. Omitted components inherit the §VIII-A
// evaluation wafer's values.
type WaferSpec struct {
	Name string `json:"name,omitempty"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	// Die and Link override the Table I components when present.
	Die  *DieSpec  `json:"die,omitempty"`
	Link *LinkSpec `json:"link,omitempty"`
	// Off-wafer parameters; zero inherits the evaluation wafer.
	IOBandwidth         float64 `json:"io_bandwidth,omitempty"`
	InterWaferBandwidth float64 `json:"inter_wafer_bandwidth,omitempty"`
	InterWaferLatency   float64 `json:"inter_wafer_latency,omitempty"`
}

// maxDieSide bounds each side of a spec's die array. Specs arrive in
// files and in HTTP request bodies, and the first evaluation lays the
// whole array out as a mesh, so an unbounded side would let one
// request ask for a 2^40-die topology. The registered wafers and the
// examples stay within 16 dies a side; 64 leaves room for larger
// wafers while keeping a mesh in the thousands of dies.
const maxDieSide = 64

// Validate reports structural problems with the spec.
func (s WaferSpec) Validate() error {
	if s.Rows <= 0 || s.Cols <= 0 {
		return fmt.Errorf("spec: wafer %q has non-positive die array %dx%d", s.Name, s.Rows, s.Cols)
	}
	if s.Rows > maxDieSide || s.Cols > maxDieSide {
		return fmt.Errorf("spec: wafer %q die array %dx%d exceeds %d dies a side", s.Name, s.Rows, s.Cols, maxDieSide)
	}
	if s.Die != nil {
		if s.Die.PeakFLOPS < 0 || s.Die.HBMBytes < 0 || s.Die.HBMBandwidth < 0 {
			return fmt.Errorf("spec: wafer %q has negative die parameters", s.Name)
		}
	}
	if s.Link != nil && s.Link.Bandwidth < 0 {
		return fmt.Errorf("spec: wafer %q has negative link bandwidth", s.Name)
	}
	return nil
}

// Wafer builds the hw.Wafer: validation, defaulting, then the hw
// layer's own invariant check.
func (s WaferSpec) Wafer() (hw.Wafer, error) {
	if err := s.Validate(); err != nil {
		return hw.Wafer{}, err
	}
	die := hw.TableIDie()
	if s.Die != nil {
		die = s.Die.Die()
	}
	link := hw.TableID2D()
	if s.Link != nil {
		link = s.Link.Link()
	}
	w := hw.Custom(s.Name, s.Rows, s.Cols, die, link)
	if s.IOBandwidth > 0 {
		w.IOBandwidth = s.IOBandwidth
	}
	if s.InterWaferBandwidth > 0 {
		w.InterWaferBandwidth = s.InterWaferBandwidth
	}
	if s.InterWaferLatency > 0 {
		w.InterWaferLatency = s.InterWaferLatency
	}
	if err := w.Validate(); err != nil {
		return hw.Wafer{}, err
	}
	return w, nil
}

// WaferSpecOf captures a wafer as a fully-explicit spec (the ToSpec
// round-trip): building the result reproduces the wafer exactly.
func WaferSpecOf(w hw.Wafer) WaferSpec {
	die := DieSpecOf(w.Die)
	link := LinkSpecOf(w.Link)
	return WaferSpec{
		Name: w.Name, Rows: w.Rows, Cols: w.Cols,
		Die: &die, Link: &link,
		IOBandwidth:         w.IOBandwidth,
		InterWaferBandwidth: w.InterWaferBandwidth,
		InterWaferLatency:   w.InterWaferLatency,
	}
}

// ModelSpec describes one transformer language model (the Table II
// shape parameters). Batch, Seq, FFNMult and Vocab default to 128,
// 2048, 4 and 50257 (the GPT-3 conventions) when zero.
type ModelSpec struct {
	Name    string `json:"name"`
	Heads   int    `json:"heads"`
	Batch   int    `json:"batch,omitempty"`
	Hidden  int    `json:"hidden"`
	Layers  int    `json:"layers"`
	Seq     int    `json:"seq,omitempty"`
	FFNMult int    `json:"ffn_mult,omitempty"`
	Vocab   int    `json:"vocab,omitempty"`
}

// withDefaults returns the spec with zero fields defaulted.
func (s ModelSpec) withDefaults() ModelSpec {
	if s.Batch == 0 {
		s.Batch = 128
	}
	if s.Seq == 0 {
		s.Seq = 2048
	}
	if s.FFNMult == 0 {
		s.FFNMult = 4
	}
	if s.Vocab == 0 {
		s.Vocab = 50257
	}
	return s
}

// Validate reports structural problems with the spec after
// defaulting.
func (s ModelSpec) Validate() error {
	d := s.withDefaults()
	return model.Config{
		Name: d.Name, Heads: d.Heads, Batch: d.Batch, Hidden: d.Hidden,
		Layers: d.Layers, Seq: d.Seq, FFNMult: d.FFNMult, Vocab: d.Vocab,
	}.Validate()
}

// Model builds the model.Config.
func (s ModelSpec) Model() (model.Config, error) {
	d := s.withDefaults()
	m := model.Config{
		Name: d.Name, Heads: d.Heads, Batch: d.Batch, Hidden: d.Hidden,
		Layers: d.Layers, Seq: d.Seq, FFNMult: d.FFNMult, Vocab: d.Vocab,
	}
	if m.Name == "" {
		m.Name = fmt.Sprintf("custom-%dx%d", m.Hidden, m.Layers)
	}
	if err := m.Validate(); err != nil {
		return model.Config{}, err
	}
	return m, nil
}

// ModelSpecOf captures a model as a fully-explicit spec.
func ModelSpecOf(m model.Config) ModelSpec {
	return ModelSpec{
		Name: m.Name, Heads: m.Heads, Batch: m.Batch, Hidden: m.Hidden,
		Layers: m.Layers, Seq: m.Seq, FFNMult: m.FFNMult, Vocab: m.Vocab,
	}
}

// EnvelopeSpec restricts a system's configuration space (see
// baselines.Envelope).
type EnvelopeSpec struct {
	MaxDP   int `json:"max_dp,omitempty"`
	MaxTP   int `json:"max_tp,omitempty"`
	MaxSP   int `json:"max_sp,omitempty"`
	MaxCP   int `json:"max_cp,omitempty"`
	MaxTATP int `json:"max_tatp,omitempty"`
}

// Envelope converts to the baselines representation.
func (s EnvelopeSpec) Envelope() baselines.Envelope {
	return baselines.Envelope{
		MaxDP: s.MaxDP, MaxTP: s.MaxTP, MaxSP: s.MaxSP,
		MaxCP: s.MaxCP, MaxTATP: s.MaxTATP,
	}
}

// SystemSpec describes an evaluated training system as scheme ×
// engine × configuration-space envelope.
type SystemSpec struct {
	// Name overrides the derived system name when set.
	Name string `json:"name,omitempty"`
	// Scheme is the partitioning scheme: megatron1 | mesp | fsdp |
	// temp.
	Scheme string `json:"scheme"`
	// Engine is the mapping engine: smap | gmap | tcme. Defaults to
	// tcme for the temp scheme and gmap otherwise.
	Engine string `json:"engine,omitempty"`
	// Envelope optionally caps the swept configuration space.
	Envelope *EnvelopeSpec `json:"envelope,omitempty"`
}

// ParseEngine resolves a mapping-engine name.
func ParseEngine(name string) (cost.Engine, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "smap":
		return cost.SMap, nil
	case "gmap":
		return cost.GMap, nil
	case "tcme", "temp":
		return cost.TCMEEngine, nil
	default:
		return 0, fmt.Errorf("spec: unknown engine %q (want smap|gmap|tcme)", name)
	}
}

// engineName renders an engine in spec notation.
func engineName(e cost.Engine) string { return strings.ToLower(e.String()) }

// Validate reports structural problems with the spec.
func (s SystemSpec) Validate() error {
	_, err := s.System()
	return err
}

// System builds the baselines.System.
func (s SystemSpec) System() (baselines.System, error) {
	scheme := strings.ToLower(strings.TrimSpace(s.Scheme))
	if scheme == "" {
		scheme = "temp"
	}
	engName := s.Engine
	if engName == "" {
		if scheme == "temp" || scheme == "tatp" {
			engName = "tcme"
		} else {
			engName = "gmap"
		}
	}
	e, err := ParseEngine(engName)
	if err != nil {
		return baselines.System{}, err
	}
	var env baselines.Envelope
	if s.Envelope != nil {
		env = s.Envelope.Envelope()
	}
	sys, err := baselines.FromScheme(scheme, e, env)
	if err != nil {
		return baselines.System{}, err
	}
	if s.Name != "" {
		sys.Name = s.Name
	}
	return sys, nil
}

// SystemSpecOf captures a system as a spec. It relies on the Scheme
// field the baselines constructors stamp; hand-built systems with an
// empty scheme cannot be serialized.
func SystemSpecOf(s baselines.System) (SystemSpec, error) {
	if s.Scheme == "" {
		return SystemSpec{}, fmt.Errorf("spec: system %q has no scheme; only scheme-built systems serialize", s.Name)
	}
	out := SystemSpec{Name: s.Name, Scheme: s.Scheme, Engine: engineName(s.Opts.Engine)}
	if !s.Envelope.Zero() {
		out.Envelope = &EnvelopeSpec{
			MaxDP: s.Envelope.MaxDP, MaxTP: s.Envelope.MaxTP,
			MaxSP: s.Envelope.MaxSP, MaxCP: s.Envelope.MaxCP,
			MaxTATP: s.Envelope.MaxTATP,
		}
	}
	return out, nil
}

// ConfigSpec pins one explicit hybrid parallel configuration instead
// of sweeping a system's space.
type ConfigSpec struct {
	DP         int  `json:"dp,omitempty"`
	TP         int  `json:"tp,omitempty"`
	SP         int  `json:"sp,omitempty"`
	CP         int  `json:"cp,omitempty"`
	TATP       int  `json:"tatp,omitempty"`
	PP         int  `json:"pp,omitempty"`
	FSDP       bool `json:"fsdp,omitempty"`
	MegatronSP bool `json:"megatron_sp,omitempty"`
}

// Config converts to the parallel representation (zero degrees
// normalize to 1).
func (s ConfigSpec) Config() parallel.Config {
	return parallel.Config{
		DP: s.DP, TP: s.TP, SP: s.SP, CP: s.CP, TATP: s.TATP, PP: s.PP,
		FSDP: s.FSDP, MegatronSP: s.MegatronSP,
	}.Normalize()
}

// ConfigSpecOf captures a parallel configuration as a spec.
func ConfigSpecOf(c parallel.Config) ConfigSpec {
	c = c.Normalize()
	return ConfigSpec{
		DP: c.DP, TP: c.TP, SP: c.SP, CP: c.CP, TATP: c.TATP, PP: c.PP,
		FSDP: c.FSDP, MegatronSP: c.MegatronSP,
	}
}

// FaultSpec adds fault injection to a scenario (§VIII-F): the
// scenario's winning configuration is re-evaluated under random
// link/core failures and reported as normalized throughput.
type FaultSpec struct {
	LinkRate    float64 `json:"link_rate,omitempty"`
	CoreRate    float64 `json:"core_rate,omitempty"`
	CoresPerDie int     `json:"cores_per_die,omitempty"`
	// Trials is the number of random injections averaged (default 8).
	Trials int `json:"trials,omitempty"`
	// Seed fixes the injection randomness (default 42).
	Seed int64 `json:"seed,omitempty"`
	// Repair adds the degradation-aware repair stage: one seeded mask
	// is re-solved on the degraded fabric, warm-started from the
	// winning configuration.
	Repair *RepairSpec `json:"repair,omitempty"`
	// Campaign sweeps the winning configuration over a LinkRate ×
	// CoreRate survivability grid.
	Campaign *CampaignSpec `json:"campaign,omitempty"`
}

// TrialCount returns the defaulted trial count.
func (s FaultSpec) TrialCount() int {
	if s.Trials > 0 {
		return s.Trials
	}
	return 8
}

// RandSeed returns the defaulted seed.
func (s FaultSpec) RandSeed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return 42
}
