package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestDenseForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, false, rng)
	out := d.Infer([]float64{1, 2, 3})
	if len(out) != 2 {
		t.Fatalf("output len = %d", len(out))
	}
}

func TestDenseForwardPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched input did not panic")
		}
	}()
	rng := rand.New(rand.NewSource(1))
	NewDense(3, 2, false, rng).Infer([]float64{1})
}

func TestReLUZeroesNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(1, 1, true, rng)
	d.W[0] = 1
	d.B[0] = 0
	if out := d.Infer([]float64{-5})[0]; out != 0 {
		t.Errorf("ReLU(-5) = %v", out)
	}
	if out := d.Infer([]float64{5})[0]; out != 5 {
		t.Errorf("ReLU(5) = %v", out)
	}
}

// TestMLPLearnsLinearFunction: the MLP must fit y = 2x₀ - 3x₁ + 1.
func TestMLPLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var xs, ys [][]float64
	for i := 0; i < 256; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		xs = append(xs, x)
		ys = append(ys, []float64{2*x[0] - 3*x[1] + 1})
	}
	m := NewMLP([]int{2, 16, 1}, rng)
	loss := m.Fit(xs, ys, 200, 32, AdamConfig{LR: 1e-2}, rng)
	if loss > 1e-3 {
		t.Errorf("final loss = %v, want <1e-3", loss)
	}
	pred := m.Predict([]float64{0.5, -0.5})[0]
	want := 2*0.5 + 3*0.5 + 1
	if math.Abs(pred-want) > 0.1 {
		t.Errorf("Predict = %v, want %v", pred, want)
	}
}

// TestMLPLearnsNonlinear: fit y = x² on [-1,1] — requires the hidden
// ReLU layer to do real work.
func TestMLPLearnsNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs, ys [][]float64
	for i := 0; i < 512; i++ {
		x := rng.Float64()*2 - 1
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{x * x})
	}
	m := NewMLP([]int{1, 32, 32, 1}, rng)
	loss := m.Fit(xs, ys, 300, 64, AdamConfig{LR: 3e-3}, rng)
	if loss > 5e-3 {
		t.Errorf("final loss = %v, want <5e-3", loss)
	}
}

func TestGradientCheck(t *testing.T) {
	// Numerical vs analytic gradient on a tiny network.
	rng := rand.New(rand.NewSource(3))
	m := NewMLP([]int{2, 3, 1}, rng)
	x := []float64{0.3, -0.7}
	y := []float64{0.5}
	lossAt := func() float64 {
		out := m.Predict(x)
		d := out[0] - y[0]
		return d * d
	}
	// Analytic gradients from the training pass; a one-sample batch's
	// mean loss is the squared error itself.
	m.backprop([][]float64{x}, [][]float64{y})
	gW := m.gW
	const eps = 1e-6
	for li, l := range m.Layers {
		for wi := 0; wi < len(l.W); wi += 3 {
			orig := l.W[wi]
			l.W[wi] = orig + eps
			up := lossAt()
			l.W[wi] = orig - eps
			down := lossAt()
			l.W[wi] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-gW[li][wi]) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("layer %d w[%d]: numeric %v vs analytic %v", li, wi, num, gW[li][wi])
			}
		}
	}
}

func TestStandardizer(t *testing.T) {
	xs := [][]float64{{1, 10}, {3, 30}, {5, 50}}
	s := FitStandardizer(xs)
	if math.Abs(s.Mean[0]-3) > 1e-12 || math.Abs(s.Mean[1]-30) > 1e-12 {
		t.Errorf("means = %v", s.Mean)
	}
	norm := s.ApplyAll(xs)
	var m0 float64
	for _, x := range norm {
		m0 += x[0]
	}
	if math.Abs(m0) > 1e-9 {
		t.Errorf("standardized mean = %v, want 0", m0/3)
	}
	// Constant features don't blow up.
	cs := FitStandardizer([][]float64{{5}, {5}, {5}})
	if v := cs.Apply([]float64{5})[0]; v != 0 {
		t.Errorf("constant feature standardized to %v", v)
	}
}

func TestLinearRegressionExactFit(t *testing.T) {
	// y = 4x₀ - 2x₁ + 7 fits exactly.
	xs := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 3}}
	var ys []float64
	for _, x := range xs {
		ys = append(ys, 4*x[0]-2*x[1]+7)
	}
	lr := FitLinear(xs, ys, 1e-9)
	for i, x := range xs {
		if got := lr.Predict(x); math.Abs(got-ys[i]) > 1e-6 {
			t.Errorf("Predict(%v) = %v, want %v", x, got, ys[i])
		}
	}
}

func TestLinearRegressionUnderfitsQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64()*4 - 2
		xs = append(xs, []float64{x})
		ys = append(ys, x*x)
	}
	lr := FitLinear(xs, ys, 1e-6)
	var preds []float64
	for _, x := range xs {
		preds = append(preds, lr.Predict(x))
	}
	if mape := MAPE(preds, ys); mape < 10 {
		t.Errorf("linear fit of quadratic MAPE = %.1f%%, expected poor (≥10%%)", mape)
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if r := Pearson(a, a); math.Abs(r-1) > 1e-12 {
		t.Errorf("self correlation = %v", r)
	}
	b := []float64{4, 3, 2, 1}
	if r := Pearson(a, b); math.Abs(r+1) > 1e-12 {
		t.Errorf("anti correlation = %v", r)
	}
	c := []float64{5, 5, 5, 5}
	if r := Pearson(a, c); r != 0 {
		t.Errorf("constant series correlation = %v", r)
	}
}

func TestMAPE(t *testing.T) {
	pred := []float64{110, 90}
	truth := []float64{100, 100}
	if got := MAPE(pred, truth); math.Abs(got-10) > 1e-12 {
		t.Errorf("MAPE = %v, want 10", got)
	}
	// Zero truths are skipped.
	if got := MAPE([]float64{1, 110}, []float64{0, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("MAPE with zero truth = %v, want 10", got)
	}
}

func TestFitPanicsOnEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP([]int{1, 1}, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("Fit on empty dataset did not panic")
		}
	}()
	m.Fit(nil, nil, 1, 1, AdamConfig{}, rng)
}

// TestPredictMatchesTrainingForward pins the read-only inference path
// to the batched training forward pass bit-for-bit.
func TestPredictMatchesTrainingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP([]int{4, 8, 8, 1}, rng)
	xs, ys := make([][]float64, 20), make([][]float64, 20)
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ys[i] = []float64{0}
	}
	m.backprop(xs, ys)
	out := m.act[len(m.Layers)-1]
	for i, x := range xs {
		if got, want := m.Predict(x)[0], out[i]; got != want {
			t.Fatalf("sample %d: Predict %v ≠ training forward %v", i, got, want)
		}
	}
}

// TestPredictIsReadOnly hammers one trained MLP from many goroutines;
// with the read-only inference path this is race-free (the CI -race
// run enforces it) and every goroutine sees the serial predictions.
func TestPredictIsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP([]int{3, 16, 16, 1}, rng)
	xs := make([][]float64, 64)
	want := make([]float64, len(xs))
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		want[i] = m.Predict(xs[i])[0]
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for rep := 0; rep < 50; rep++ {
				for i, x := range xs {
					if got := m.Predict(x)[0]; got != want[i] {
						done <- fmt.Errorf("concurrent Predict %v ≠ serial %v", got, want[i])
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// refTrainBatch is the per-sample Adam step the batched kernels
// replaced, kept as their bit-identity reference: each sample runs a
// forward pass through every layer, then a backward pass that visits
// one output at a time.
func refTrainBatch(m *MLP, xs, ys [][]float64, cfg AdamConfig) float64 {
	cfg = cfg.withDefaults()
	gW := make([][]float64, len(m.Layers))
	gB := make([][]float64, len(m.Layers))
	for i, l := range m.Layers {
		gW[i] = make([]float64, len(l.W))
		gB[i] = make([]float64, len(l.B))
	}
	var loss float64
	for s := range xs {
		ins := make([][]float64, len(m.Layers))
		pres := make([][]float64, len(m.Layers))
		h := xs[s]
		for li, l := range m.Layers {
			ins[li], pres[li] = h, make([]float64, l.Out)
			out := make([]float64, l.Out)
			for o := 0; o < l.Out; o++ {
				v := l.B[o]
				row := l.W[o*l.In : (o+1)*l.In]
				for i, xi := range h {
					v += row[i] * xi
				}
				pres[li][o] = v
				if l.ReLU && v < 0 {
					v = 0
				}
				out[o] = v
			}
			h = out
		}
		dOut := make([]float64, len(h))
		for o := range h {
			diff := h[o] - ys[s][o]
			loss += diff * diff
			dOut[o] = 2 * diff / float64(len(xs))
		}
		for li := len(m.Layers) - 1; li >= 0; li-- {
			l := m.Layers[li]
			dIn := make([]float64, l.In)
			for o := 0; o < l.Out; o++ {
				g := dOut[o]
				if l.ReLU && pres[li][o] <= 0 {
					continue
				}
				gB[li][o] += g
				row := l.W[o*l.In : (o+1)*l.In]
				gRow := gW[li][o*l.In : (o+1)*l.In]
				for i := 0; i < l.In; i++ {
					gRow[i] += g * ins[li][i]
					dIn[i] += g * row[i]
				}
			}
			dOut = dIn
		}
	}
	loss /= float64(len(xs))
	m.step++
	b1c := 1 - math.Pow(cfg.Beta1, float64(m.step))
	b2c := 1 - math.Pow(cfg.Beta2, float64(m.step))
	for li, l := range m.Layers {
		adam(l.W, gW[li], l.mW, l.vW, cfg, b1c, b2c)
		adam(l.B, gB[li], l.mB, l.vB, cfg, b1c, b2c)
	}
	return loss
}

// syntheticData draws n standard-normal inputs of width in and a
// smooth nonlinear target of width out for each.
func syntheticData(rng *rand.Rand, in, out, n int) (xs, ys [][]float64) {
	for s := 0; s < n; s++ {
		x := make([]float64, in)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, out)
		for o := range y {
			for i, v := range x {
				y[o] += math.Sin(float64(o+1)*v) * float64(i%3+1)
			}
		}
		xs, ys = append(xs, x), append(ys, y)
	}
	return xs, ys
}

// sameBits reports every parameter or moment that differs in bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestTrainBatchMatchesPerSampleReference trains two identical MLPs
// on the same minibatches, one through TrainBatch and one through the
// per-sample reference, and requires the loss, weights, biases and
// Adam moments to agree bit for bit after every step. Minibatches are
// cut as Fit cuts them, so a 600-sample epoch ends on a 24-sample
// batch.
func TestTrainBatchMatchesPerSampleReference(t *testing.T) {
	cases := []struct {
		name                   string
		widths                 []int
		samples, batch, epochs int
		kill                   bool
	}{
		{"fig21", []int{8, 48, 48, 1}, 600, 32, 2, false},
		{"tails-batch1", []int{3, 5, 7, 2}, 40, 1, 2, false},
		{"tails-batch17", []int{3, 5, 7, 2}, 200, 17, 3, false},
		{"tails-fit600", []int{3, 5, 7, 2}, 600, 32, 3, false},
		{"dead-relu", []int{5, 9, 6, 1}, 300, 32, 3, true},
	}
	cfg := AdamConfig{LR: 3e-3}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			xs, ys := syntheticData(rng, tc.widths[0], tc.widths[len(tc.widths)-1], tc.samples)
			got := NewMLP(tc.widths, rand.New(rand.NewSource(8)))
			ref := NewMLP(tc.widths, rand.New(rand.NewSource(8)))
			if tc.kill {
				// Large inputs, all-zero rows (an exactly zero
				// pre-activation while the biases are zero) and
				// strongly negative biases switch ReLU units off.
				for s, x := range xs {
					for i := range x {
						if s%7 == 0 {
							x[i] = 0
						} else {
							x[i] *= 6
						}
					}
				}
				for _, m := range []*MLP{got, ref} {
					for o := 0; o < m.Layers[1].Out; o += 2 {
						m.Layers[1].B[o] = -4
					}
				}
			}
			idx := rng.Perm(tc.samples)
			var dead, units int
			for e := 0; e < tc.epochs; e++ {
				rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
				for at := 0; at < len(idx); at += tc.batch {
					end := min(at+tc.batch, len(idx))
					var bx, by [][]float64
					for _, i := range idx[at:end] {
						bx, by = append(bx, xs[i]), append(by, ys[i])
					}
					lg, lr := got.TrainBatch(bx, by, cfg), refTrainBatch(ref, bx, by, cfg)
					if math.Float64bits(lg) != math.Float64bits(lr) {
						t.Fatalf("epoch %d batch at %d: loss %v, reference %v", e, at, lg, lr)
					}
					for li := range got.Layers {
						g, r := got.Layers[li], ref.Layers[li]
						sameBits(t, fmt.Sprintf("layer %d W", li), g.W, r.W)
						sameBits(t, fmt.Sprintf("layer %d B", li), g.B, r.B)
						sameBits(t, fmt.Sprintf("layer %d mW", li), g.mW, r.mW)
						sameBits(t, fmt.Sprintf("layer %d vW", li), g.vW, r.vW)
						sameBits(t, fmt.Sprintf("layer %d mB", li), g.mB, r.mB)
						sameBits(t, fmt.Sprintf("layer %d vB", li), g.vB, r.vB)
						if g.ReLU {
							for _, v := range got.pre[li][:len(bx)*g.Out] {
								units++
								if v <= 0 {
									dead++
								}
							}
						}
					}
				}
			}
			if tc.kill && dead*3 < units {
				t.Errorf("only %d of %d hidden pre-activations ≤ 0; the case kills too few units", dead, units)
			}
		})
	}
}

// TestTrainBatchRejectsMalformedBatches: an empty batch, unequal input
// and target counts, and a sample of the wrong width panic with an nn
// message before the Adam step touches the weights.
func TestTrainBatchRejectsMalformedBatches(t *testing.T) {
	one := [][]float64{{1, 2}}
	cases := []struct {
		name   string
		xs, ys [][]float64
	}{
		{"nil", nil, nil},
		{"empty", [][]float64{}, [][]float64{}},
		{"more inputs", [][]float64{{1, 2}, {3, 4}}, [][]float64{{1}}},
		{"more targets", one, [][]float64{{1}, {2}}},
		{"input width", [][]float64{{1, 2, 3}}, [][]float64{{1}}},
		{"target width", one, [][]float64{{1, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMLP([]int{2, 3, 1}, rand.New(rand.NewSource(1)))
			w0 := append([]float64(nil), m.Layers[0].W...)
			defer func() {
				r := recover()
				msg, ok := r.(string)
				if !ok || !strings.HasPrefix(msg, "nn: ") {
					t.Fatalf("panic %v, want an nn: message", r)
				}
				sameBits(t, "W after rejected batch", m.Layers[0].W, w0)
			}()
			m.TrainBatch(tc.xs, tc.ys, AdamConfig{})
		})
	}
}

// TestTrainBatchAllocs pins the steady-state training step to zero
// allocations: the minibatch copy, activations and gradients live in
// scratch sized by the first step.
func TestTrainBatchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, ys := syntheticData(rng, 8, 1, 32)
	m := NewMLP([]int{8, 48, 48, 1}, rng)
	cfg := AdamConfig{LR: 3e-3}
	m.TrainBatch(xs, ys, cfg)
	if avg := testing.AllocsPerRun(100, func() { m.TrainBatch(xs, ys, cfg) }); avg != 0 {
		t.Errorf("TrainBatch allocates %.1f objects/op, want 0", avg)
	}
}

// BenchmarkTrainBatch times one Adam step on Fig. 21's surrogate shape
// (8→48→48→1, batch 32), sliding the batch over 600 samples.
func BenchmarkTrainBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	xs, ys := syntheticData(rng, 8, 1, 600)
	m := NewMLP([]int{8, 48, 48, 1}, rng)
	cfg := AdamConfig{LR: 3e-3}
	const batch = 32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := (i * batch) % (len(xs) - batch)
		m.TrainBatch(xs[at:at+batch], ys[at:at+batch], cfg)
	}
}
