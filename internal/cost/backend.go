package cost

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"temp/internal/hw"
	"temp/internal/mesh"
	"temp/internal/model"
	"temp/internal/parallel"
)

// Backend is one fidelity tier of the cost model. Every tier prices
// the same two shapes: a whole training step (Price, the Evaluate
// shape every sweep and scenario consumes) and single operators
// (Operator, the fast path the solver's search strategies hammer).
//
// Three tiers ship registered:
//
//   - "analytic": the closed-form wafer model — bit-identical to the
//     historical cost.Evaluate (pinned by testdata/analytic_golden.json).
//   - "replay": contention fidelity — every communication phase is
//     lowered onto the mesh and link-load replayed through the TCME
//     optimizer instead of using closed-form collective terms.
//   - "surrogate": a deterministically-seeded, train-once DNN priced
//     per operator — the cheap screening tier of §VII-A / Fig. 21.
//
// Backends must be safe for concurrent use: the evaluation engine
// calls Price from its worker pool and the solver calls operator
// models from parallel population pricing.
type Backend interface {
	// Name returns the backend's registered name.
	Name() string
	// Price evaluates one full training step at this tier's fidelity.
	Price(m model.Config, w hw.Wafer, cfg parallel.Config, o Options) (Breakdown, error)
	// Operator returns the per-operator fast path for (model, wafer),
	// satisfying solver.CostModel.
	Operator(m model.Config, w hw.Wafer) (OperatorModel, error)
}

// PlacementBackend is the optional interface of tiers that can price
// against an existing (possibly fault-degraded) topology and
// placement — the entry point the fault-tolerance study uses after
// re-partitioning around failed hardware. The analytic and replay
// tiers implement it; the surrogate tier has no degraded-topology
// model and does not.
type PlacementBackend interface {
	PriceOn(m model.Config, w hw.Wafer, cfg parallel.Config, o Options,
		topo *mesh.Topology, place *parallel.Placement) (Breakdown, error)
}

// EvaluateWith prices one full step at a backend's fidelity,
// resolving the key through the registry. Tiers without a
// placement-aware path (the surrogate screening tier) fall back to
// the analytic model, so fault studies normalize against a
// consistent tier.
func EvaluateWith(key string, m model.Config, w hw.Wafer, cfg parallel.Config, o Options) (Breakdown, error) {
	be, err := NewBackend(key)
	if err != nil {
		return Breakdown{}, err
	}
	if _, ok := be.(PlacementBackend); ok {
		return be.Price(m, w, cfg, o)
	}
	return Evaluate(m, w, cfg, o)
}

// EvaluateOnWith is EvaluateOn at a backend's fidelity, with the same
// analytic fallback for tiers that cannot price a degraded topology.
func EvaluateOnWith(key string, m model.Config, w hw.Wafer, cfg parallel.Config, o Options,
	topo *mesh.Topology, place *parallel.Placement) (Breakdown, error) {
	be, err := NewBackend(key)
	if err != nil {
		return Breakdown{}, err
	}
	if pb, ok := be.(PlacementBackend); ok {
		return pb.PriceOn(m, w, cfg, o, topo, place)
	}
	return EvaluateOn(m, w, cfg, o, topo, place)
}

// BackendFactory builds a backend instance. The seed drives any
// training randomness (the surrogate tier); deterministic tiers
// ignore it.
type BackendFactory func(seed int64) (Backend, error)

// DefaultSurrogateSeed seeds surrogate training when a spec or key
// names the backend without an explicit seed.
const DefaultSurrogateSeed = 1

// backendRegistry is the name-keyed tier catalogue the spec layer,
// the engine and the CLIs resolve against. Instances are cached per
// canonical key so train-once backends really train once per process.
var backendRegistry = struct {
	mu        sync.RWMutex
	order     []string
	factory   map[string]BackendFactory
	instances map[string]Backend
}{factory: map[string]BackendFactory{}, instances: map[string]Backend{}}

// RegisterBackend adds a named backend factory. Names are
// case-insensitive; re-registering a name replaces the previous
// factory (and drops its cached instances).
func RegisterBackend(name string, f BackendFactory) {
	key := strings.ToLower(strings.TrimSpace(name))
	backendRegistry.mu.Lock()
	defer backendRegistry.mu.Unlock()
	if _, exists := backendRegistry.factory[key]; !exists {
		backendRegistry.order = append(backendRegistry.order, key)
	} else {
		for k := range backendRegistry.instances {
			cached := strings.SplitN(k, "@", 2)[0]
			if cached == "" {
				cached = "analytic" // the analytic tier caches under the canonical "" key
			}
			if cached == key {
				delete(backendRegistry.instances, k)
			}
		}
	}
	backendRegistry.factory[key] = f
}

// BackendNames lists registered backends in registration order.
func BackendNames() []string {
	backendRegistry.mu.RLock()
	defer backendRegistry.mu.RUnlock()
	out := make([]string, len(backendRegistry.order))
	copy(out, backendRegistry.order)
	return out
}

// BackendKey builds the canonical backend key threaded through
// engine.Job, spec.CostSpec and the CLIs: the plain name for
// seed-free tiers, "name@seed=N" otherwise. The analytic tier
// canonicalizes to "" (the zero Job evaluates analytically).
func BackendKey(name string, seed int64) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" || name == "analytic" {
		return ""
	}
	if seed == 0 {
		return name
	}
	return fmt.Sprintf("%s@seed=%d", name, seed)
}

// parseBackendKey splits a canonical key into name and seed.
func parseBackendKey(key string) (name string, seed int64, err error) {
	name = strings.ToLower(strings.TrimSpace(key))
	if at := strings.IndexByte(name, '@'); at >= 0 {
		spec := name[at+1:]
		name = name[:at]
		const pfx = "seed="
		if !strings.HasPrefix(spec, pfx) {
			return "", 0, fmt.Errorf("cost: backend key %q: want name or name@seed=N", key)
		}
		seed, err = strconv.ParseInt(spec[len(pfx):], 10, 64)
		if err != nil {
			return "", 0, fmt.Errorf("cost: backend key %q: bad seed: %v", key, err)
		}
	}
	if name == "" {
		name = "analytic"
	}
	return name, seed, nil
}

// CanonicalBackendKey normalizes a backend key for cache-key use:
// names are lower-cased, "analytic" collapses to "", and the
// surrogate tier's implicit default seed is made explicit (so
// "surrogate" and "surrogate@seed=1" share one cache entry). An
// unparsable key is returned trimmed; NewBackend will report it.
func CanonicalBackendKey(key string) string {
	name, seed, err := parseBackendKey(key)
	if err != nil {
		return strings.ToLower(strings.TrimSpace(key))
	}
	switch name {
	case "surrogate":
		if seed == 0 {
			seed = DefaultSurrogateSeed
		}
	case "analytic", "replay", "":
		// The built-in deterministic tiers ignore seeds; drop them so
		// spellings like "replay@seed=7" share the bare key's cache
		// entries. Custom registered tiers keep their seed — their
		// factories may be seeded.
		seed = 0
	}
	return BackendKey(name, seed)
}

// NewBackend resolves a backend key ("replay", "surrogate@seed=7", ""
// for analytic) to a cached instance. Instances are shared: the
// surrogate tier's trained predictors survive across calls with the
// same key.
func NewBackend(key string) (Backend, error) {
	canon := CanonicalBackendKey(key)
	name, seed, err := parseBackendKey(canon)
	if err != nil {
		return nil, err
	}
	backendRegistry.mu.RLock()
	inst, ok := backendRegistry.instances[canon]
	backendRegistry.mu.RUnlock()
	if ok {
		return inst, nil
	}
	backendRegistry.mu.Lock()
	defer backendRegistry.mu.Unlock()
	if inst, ok := backendRegistry.instances[canon]; ok {
		return inst, nil
	}
	f, ok := backendRegistry.factory[name]
	if !ok {
		return nil, fmt.Errorf("cost: unknown backend %q (have %s)",
			name, strings.Join(backendRegistry.order, ", "))
	}
	b, err := f(seed)
	if err != nil {
		return nil, err
	}
	backendRegistry.instances[canon] = b
	return b, nil
}

// builtinBackend is the analytic and the replay tier: both price
// through the one pooled full-step kernel (priceBatch), and replay
// selects its contention fidelity.
//
//   - The analytic tier is the historical monolithic model: Price is
//     exactly Evaluate and Operator is the closed-form per-op model.
//   - The replay tier runs the full evaluator with every communication
//     phase lowered onto the mesh and link-load replayed through the
//     TCME optimizer, so even SMap/GMap scenarios get their phases
//     contention-replayed — a "what if only communication scheduling
//     improved" study. Its Operator is OperatorReplay, which places each
//     candidate configuration and replays its TATP streams and TP ring
//     collectives flow by flow.
type builtinBackend struct{ replay bool }

// Name implements Backend.
func (b builtinBackend) Name() string {
	if b.replay {
		return "replay"
	}
	return "analytic"
}

// Price implements Backend.
func (b builtinBackend) Price(m model.Config, w hw.Wafer, cfg parallel.Config, o Options) (Breakdown, error) {
	return price(m, w, cfg, o, b.replay)
}

// PriceBatch implements BatchBackend.
func (b builtinBackend) PriceBatch(m model.Config, w hw.Wafer, cfgs []parallel.Config, o Options,
	out []Breakdown, errs []error) {
	priceBatch(m, w, cfgs, o, out, errs, b.replay)
}

// PriceOn implements PlacementBackend: fault studies price degraded
// topologies at the same fidelity as healthy ones.
func (b builtinBackend) PriceOn(m model.Config, w hw.Wafer, cfg parallel.Config, o Options,
	topo *mesh.Topology, place *parallel.Placement) (Breakdown, error) {
	return evaluateOn(m, w, cfg, o, topo, place, b.replay)
}

// Operator implements Backend.
func (b builtinBackend) Operator(m model.Config, w hw.Wafer) (OperatorModel, error) {
	if b.replay {
		return NewOperatorReplay(m, w), nil
	}
	return &OperatorAnalytic{W: w, M: m}, nil
}

func init() {
	RegisterBackend("analytic", func(int64) (Backend, error) { return builtinBackend{}, nil })
	RegisterBackend("replay", func(int64) (Backend, error) { return builtinBackend{replay: true}, nil })
	RegisterBackend("surrogate", func(seed int64) (Backend, error) {
		if seed == 0 {
			seed = DefaultSurrogateSeed
		}
		return newSurrogateBackend(seed), nil
	})
}
