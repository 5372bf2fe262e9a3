// Package nn is a small, dependency-free neural-network library used
// as the substrate for TEMP's DNN-based cost model (§VII-A): fully
// connected layers with ReLU activations, mean-squared-error loss,
// Adam optimization and feature standardization. It is deliberately
// minimal — just enough to train the latency-prediction MLPs the
// paper trains with an external framework.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is one fully connected layer with optional ReLU.
type Dense struct {
	In, Out int
	// W is row-major [Out][In]; B is [Out].
	W, B []float64
	ReLU bool

	// Adam state.
	mW, vW, mB, vB []float64
}

// NewDense builds a layer with He-initialized weights.
func NewDense(in, out int, relu bool, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out, ReLU: relu,
		W:  make([]float64, in*out),
		B:  make([]float64, out),
		mW: make([]float64, in*out),
		vW: make([]float64, in*out),
		mB: make([]float64, out),
		vB: make([]float64, out),
	}
	std := math.Sqrt(2.0 / float64(in))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * std
	}
	return d
}

// Infer computes the layer output for one sample. It only reads W
// and B, so a trained layer may serve any number of concurrent Infer
// calls.
func (d *Dense) Infer(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense input %d, want %d", len(x), d.In))
	}
	out := make([]float64, d.Out)
	d.affine(x, out)
	if d.ReLU {
		reluInto(out, out)
	}
	return out
}

// affine writes the pre-activation B + W·x of one sample into pre,
// which must hold Out values; len(x) must be In. It is the one
// forward kernel of both training and inference. Four output rows
// are computed at a time as independent sums sharing each x[i] load;
// every sum still starts at B[o] and adds W[o,i]*x[i] with i
// ascending, so each output rounds exactly as a one-row loop would.
func (d *Dense) affine(x, pre []float64) {
	in := len(x)
	w, b := d.W, d.B
	o := 0
	for ; o+4 <= len(pre); o += 4 {
		pre[o], pre[o+1], pre[o+2], pre[o+3] = dot4(x,
			w[o*in:(o+1)*in], w[(o+1)*in:(o+2)*in], w[(o+2)*in:(o+3)*in], w[(o+3)*in:(o+4)*in],
			b[o], b[o+1], b[o+2], b[o+3])
	}
	for ; o < len(pre); o++ {
		row := w[o*in : (o+1)*in][:len(x)]
		s := b[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		pre[o] = s
	}
}

// dot4 returns s_k + Σ_i w_k[i]*x[i] for four rows, each summed with
// i ascending. The rows share every x[i] load, and the four sums are
// independent chains the processor can overlap. dot4, outer4 and
// outerDot4 stay out of line: inlined into their callers, the
// compiler spills the row pointers of the inner loop to the stack.
//
//go:noinline
func dot4(x, w0, w1, w2, w3 []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	for i, xi := range x {
		s0 += w0[i] * xi
		s1 += w1[i] * xi
		s2 += w2[i] * xi
		s3 += w3[i] * xi
	}
	return s0, s1, s2, s3
}

// reluInto writes max(pre, 0) into act; a zero or NaN pre passes
// through. It selects between bit patterns, which the compiler turns
// into a conditional move, because a branch on the sign of a trained
// unit's pre-activation is mispredicted about half the time.
func reluInto(pre, act []float64) {
	act = act[:len(pre)]
	for j, v := range pre {
		b := math.Float64bits(v)
		if v < 0 {
			b = 0
		}
		act[j] = math.Float64frombits(b)
	}
}

// backward runs one sample's backward pass through the layer: given
// the layer input x, its pre-activation pre and dL/dout g, it adds
// the sample's parameter gradients to gW and gB and, when dIn is
// non-nil, writes dL/din into it. live is scratch of capacity Out.
//
// Outputs whose ReLU is off (pre <= 0) are skipped, then the live
// ones are taken four at a time. Each gW[o,i] and gB[o] receives one
// addition per sample, and each dIn[i] sums g_o*W[o,i] over the live
// outputs in ascending order, so every value rounds exactly as in a
// one-output-at-a-time pass over the samples in order.
func (d *Dense) backward(x, pre, g, dIn, gW, gB []float64, live []int) {
	in := len(x)
	live = live[:len(g)]
	if d.ReLU {
		// Written so the count compiles to a conditional move; see
		// reluInto.
		n := 0
		for o, p := range pre[:len(live)] {
			live[n] = o
			if !(p <= 0) {
				n++
			}
		}
		live = live[:n]
	} else {
		for o := range live {
			live[o] = o
		}
	}
	if dIn != nil {
		dIn = dIn[:len(x)]
		clear(dIn)
	}
	w := d.W
	k := 0
	for ; k+4 <= len(live); k += 4 {
		o0, o1, o2, o3 := live[k], live[k+1], live[k+2], live[k+3]
		g0, g1, g2, g3 := g[o0], g[o1], g[o2], g[o3]
		gB[o0] += g0
		gB[o1] += g1
		gB[o2] += g2
		gB[o3] += g3
		gw0, gw1, gw2, gw3 := gW[o0*in:(o0+1)*in], gW[o1*in:(o1+1)*in], gW[o2*in:(o2+1)*in], gW[o3*in:(o3+1)*in]
		if dIn == nil {
			outer4(x, gw0, gw1, gw2, gw3, g0, g1, g2, g3)
			continue
		}
		outerDot4(x, dIn, gw0, gw1, gw2, gw3,
			w[o0*in:(o0+1)*in], w[o1*in:(o1+1)*in], w[o2*in:(o2+1)*in], w[o3*in:(o3+1)*in],
			g0, g1, g2, g3)
	}
	for _, o := range live[k:] {
		g0 := g[o]
		gB[o] += g0
		gw := gW[o*in : (o+1)*in][:len(x)]
		if dIn == nil {
			for i, xi := range x {
				gw[i] += g0 * xi
			}
			continue
		}
		row := w[o*in : (o+1)*in][:len(x)]
		for i, xi := range x {
			gw[i] += g0 * xi
			dIn[i] += g0 * row[i]
		}
	}
}

// outer4 adds g_k*x[i] to gw_k[i] for four gradient rows.
//
//go:noinline
func outer4(x, gw0, gw1, gw2, gw3 []float64, g0, g1, g2, g3 float64) {
	gw0, gw1, gw2, gw3 = gw0[:len(x)], gw1[:len(x)], gw2[:len(x)], gw3[:len(x)]
	for i, xi := range x {
		gw0[i] += g0 * xi
		gw1[i] += g1 * xi
		gw2[i] += g2 * xi
		gw3[i] += g3 * xi
	}
}

// outerDot4 is outer4 fused with the input-gradient update: it adds
// g0*w0[i], then g1*w1[i], g2*w2[i] and g3*w3[i] to dIn[i].
//
//go:noinline
func outerDot4(x, dIn, gw0, gw1, gw2, gw3, w0, w1, w2, w3 []float64, g0, g1, g2, g3 float64) {
	dIn = dIn[:len(x)]
	gw0, gw1, gw2, gw3 = gw0[:len(x)], gw1[:len(x)], gw2[:len(x)], gw3[:len(x)]
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	for i, xi := range x {
		gw0[i] += g0 * xi
		gw1[i] += g1 * xi
		gw2[i] += g2 * xi
		gw3[i] += g3 * xi
		t := dIn[i]
		t += g0 * w0[i]
		t += g1 * w1[i]
		t += g2 * w2[i]
		t += g3 * w3[i]
		dIn[i] = t
	}
}

// MLP is a feed-forward stack of Dense layers.
type MLP struct {
	Layers []*Dense
	step   int

	// training scratch, reused across TrainBatch calls: parameter
	// gradients, the minibatch copied into one row-major [n][In]
	// buffer, per-layer row-major [n][Out] pre-activations,
	// activations (the same buffer as pre for a linear layer) and
	// dL/dout, and the backward pass's live-output list. rows is the
	// minibatch size the buffers hold.
	gW, gB         [][]float64
	x              []float64
	pre, act, grad [][]float64
	live           []int
	rows           int
}

// NewMLP builds a network with the given layer widths; all hidden
// layers use ReLU, the output layer is linear.
func NewMLP(widths []int, rng *rand.Rand) *MLP {
	if len(widths) < 2 {
		panic("nn: MLP needs at least input and output widths")
	}
	m := &MLP{}
	for i := 0; i+1 < len(widths); i++ {
		relu := i+2 < len(widths)
		m.Layers = append(m.Layers, NewDense(widths[i], widths[i+1], relu, rng))
	}
	return m
}

// Predict runs a read-only forward pass. It touches none of the
// training scratch, so a trained MLP is safe for concurrent Predict
// calls from any number of goroutines (the contract the surrogate
// cost backends and the solver's CostModel rely on). Training must
// not run concurrently with Predict.
func (m *MLP) Predict(x []float64) []float64 {
	h := x
	for _, l := range m.Layers {
		h = l.Infer(h)
	}
	return h
}

// reserve sizes the training scratch for an n-sample minibatch.
func (m *MLP) reserve(n int) {
	if m.gW == nil {
		k := len(m.Layers)
		m.gW, m.gB = make([][]float64, k), make([][]float64, k)
		m.pre, m.act, m.grad = make([][]float64, k), make([][]float64, k), make([][]float64, k)
		for i, l := range m.Layers {
			m.gW[i] = make([]float64, len(l.W))
			m.gB[i] = make([]float64, len(l.B))
		}
	}
	if n <= m.rows {
		return
	}
	m.rows = n
	m.x = make([]float64, n*m.Layers[0].In)
	maxOut := 0
	for i, l := range m.Layers {
		m.pre[i] = make([]float64, n*l.Out)
		m.act[i] = m.pre[i]
		if l.ReLU {
			m.act[i] = make([]float64, n*l.Out)
		}
		m.grad[i] = make([]float64, n*l.Out)
		maxOut = max(maxOut, l.Out)
	}
	m.live = make([]int, 0, maxOut)
}

// backprop runs the forward and backward passes of an MSE minibatch,
// leaving dL/dW and dL/dB in m.gW and m.gB, and returns the batch
// loss. Samples are processed in order within each layer, so every
// gradient sums its per-sample terms in sample order.
func (m *MLP) backprop(xs, ys [][]float64) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		panic(fmt.Sprintf("nn: TrainBatch requires matching non-empty batches, got %d inputs and %d targets", len(xs), len(ys)))
	}
	n := len(xs)
	m.reserve(n)
	first, last := m.Layers[0], m.Layers[len(m.Layers)-1]
	x := m.x[:n*first.In]
	for s, xr := range xs {
		if len(xr) != first.In {
			panic(fmt.Sprintf("nn: sample %d has %d inputs, want %d", s, len(xr), first.In))
		}
		if len(ys[s]) != last.Out {
			panic(fmt.Sprintf("nn: sample %d has %d targets, want %d", s, len(ys[s]), last.Out))
		}
		copy(x[s*first.In:], xr)
	}

	h := x
	for li, l := range m.Layers {
		pre := m.pre[li][:n*l.Out]
		for s := 0; s < n; s++ {
			l.affine(h[s*l.In:(s+1)*l.In], pre[s*l.Out:(s+1)*l.Out])
		}
		if l.ReLU {
			reluInto(pre, m.act[li])
		}
		h = m.act[li][:n*l.Out]
	}

	var loss float64
	dOut := m.grad[len(m.Layers)-1]
	for s, y := range ys {
		out := h[s*last.Out : (s+1)*last.Out]
		for o, v := range out {
			diff := v - y[o]
			loss += diff * diff
			dOut[s*last.Out+o] = 2 * diff / float64(n)
		}
	}

	for li := len(m.Layers) - 1; li >= 0; li-- {
		l, gW, gB := m.Layers[li], m.gW[li], m.gB[li]
		clear(gW)
		clear(gB)
		in, pre, g := x, m.pre[li], m.grad[li]
		var dIn []float64
		if li > 0 {
			// Layer 0's input gradient is never read.
			in, dIn = m.act[li-1], m.grad[li-1]
		}
		for s := 0; s < n; s++ {
			var di []float64
			if dIn != nil {
				di = dIn[s*l.In : (s+1)*l.In]
			}
			l.backward(in[s*l.In:(s+1)*l.In], pre[s*l.Out:(s+1)*l.Out],
				g[s*l.Out:(s+1)*l.Out], di, gW, gB, m.live)
		}
	}
	return loss / float64(n)
}

// AdamConfig holds optimizer hyper-parameters; zero values take the
// usual defaults.
type AdamConfig struct {
	LR, Beta1, Beta2, Eps float64
}

func (c AdamConfig) withDefaults() AdamConfig {
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Beta1 == 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 == 0 {
		c.Beta2 = 0.999
	}
	if c.Eps == 0 {
		c.Eps = 1e-8
	}
	return c
}

// TrainBatch runs one Adam step on a minibatch with MSE loss and
// returns the batch loss. It panics on an empty batch, on unequal
// numbers of inputs and targets, and on a sample of the wrong width.
func (m *MLP) TrainBatch(xs [][]float64, ys [][]float64, cfg AdamConfig) float64 {
	cfg = cfg.withDefaults()
	loss := m.backprop(xs, ys)
	m.step++
	b1c := 1 - math.Pow(cfg.Beta1, float64(m.step))
	b2c := 1 - math.Pow(cfg.Beta2, float64(m.step))
	for li, l := range m.Layers {
		adam(l.W, m.gW[li], l.mW, l.vW, cfg, b1c, b2c)
		adam(l.B, m.gB[li], l.mB, l.vB, cfg, b1c, b2c)
	}
	return loss
}

func adam(w, g, mo, vo []float64, cfg AdamConfig, b1c, b2c float64) {
	for i := range w {
		mo[i] = cfg.Beta1*mo[i] + (1-cfg.Beta1)*g[i]
		vo[i] = cfg.Beta2*vo[i] + (1-cfg.Beta2)*g[i]*g[i]
		mh := mo[i] / b1c
		vh := vo[i] / b2c
		w[i] -= cfg.LR * mh / (math.Sqrt(vh) + cfg.Eps)
	}
}

// Fit trains for the given number of epochs over shuffled minibatches
// and returns the final epoch's mean loss.
func (m *MLP) Fit(xs, ys [][]float64, epochs, batch int, cfg AdamConfig, rng *rand.Rand) float64 {
	if len(xs) == 0 || len(xs) != len(ys) {
		panic("nn: Fit requires matching non-empty datasets")
	}
	if batch <= 0 {
		batch = 32
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	var last float64
	bx := make([][]float64, 0, batch)
	by := make([][]float64, 0, batch)
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var batches int
		for at := 0; at < len(idx); at += batch {
			end := at + batch
			if end > len(idx) {
				end = len(idx)
			}
			bx, by = bx[:0], by[:0]
			for _, i := range idx[at:end] {
				bx = append(bx, xs[i])
				by = append(by, ys[i])
			}
			epochLoss += m.TrainBatch(bx, by, cfg)
			batches++
		}
		last = epochLoss / float64(batches)
	}
	return last
}

// Standardizer performs per-feature z-score normalization.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes feature statistics over a dataset.
func FitStandardizer(xs [][]float64) *Standardizer {
	if len(xs) == 0 {
		panic("nn: empty dataset")
	}
	d := len(xs[0])
	s := &Standardizer{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, x := range xs {
		for i, v := range x {
			s.Mean[i] += v
		}
	}
	for i := range s.Mean {
		s.Mean[i] /= float64(len(xs))
	}
	for _, x := range xs {
		for i, v := range x {
			dv := v - s.Mean[i]
			s.Std[i] += dv * dv
		}
	}
	for i := range s.Std {
		s.Std[i] = math.Sqrt(s.Std[i] / float64(len(xs)))
		if s.Std[i] < 1e-12 {
			s.Std[i] = 1
		}
	}
	return s
}

// Apply standardizes one sample (allocating a new slice).
func (s *Standardizer) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = (v - s.Mean[i]) / s.Std[i]
	}
	return out
}

// ApplyAll standardizes a dataset.
func (s *Standardizer) ApplyAll(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = s.Apply(x)
	}
	return out
}

// LinearRegression is the multivariate least-squares baseline the
// paper compares the DNN model against (Fig. 21). Solved by normal
// equations with ridge damping for stability.
type LinearRegression struct {
	// Coef has length features+1; the last entry is the intercept.
	Coef []float64
}

// FitLinear fits y = Xw + b by ridge-regularized normal equations.
func FitLinear(xs [][]float64, ys []float64, ridge float64) *LinearRegression {
	n := len(xs)
	if n == 0 || n != len(ys) {
		panic("nn: FitLinear requires matching non-empty datasets")
	}
	d := len(xs[0]) + 1 // +1 intercept
	// Build A = XᵀX + λI and b = Xᵀy.
	A := make([][]float64, d)
	for i := range A {
		A[i] = make([]float64, d)
	}
	bvec := make([]float64, d)
	row := make([]float64, d)
	for s := 0; s < n; s++ {
		copy(row, xs[s])
		row[d-1] = 1
		for i := 0; i < d; i++ {
			bvec[i] += row[i] * ys[s]
			for j := 0; j < d; j++ {
				A[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < d; i++ {
		A[i][i] += ridge
	}
	coef := solveGaussian(A, bvec)
	return &LinearRegression{Coef: coef}
}

// Predict evaluates the regression on one sample.
func (l *LinearRegression) Predict(x []float64) float64 {
	s := l.Coef[len(l.Coef)-1]
	for i, v := range x {
		s += l.Coef[i] * v
	}
	return s
}

// solveGaussian solves Ax = b in place with partial pivoting.
func solveGaussian(A [][]float64, b []float64) []float64 {
	n := len(A)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[piv][col]) {
				piv = r
			}
		}
		A[col], A[piv] = A[piv], A[col]
		b[col], b[piv] = b[piv], b[col]
		p := A[col][col]
		if math.Abs(p) < 1e-15 {
			continue
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := A[r][col] / p
			for c := col; c < n; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		if math.Abs(A[i][i]) < 1e-15 {
			x[i] = 0
			continue
		}
		x[i] = b[i] / A[i][i]
	}
	return x
}

// Pearson returns the Pearson correlation of two equal-length series.
func Pearson(a, b []float64) float64 {
	n := float64(len(a))
	if len(a) != len(b) || len(a) == 0 {
		panic("nn: Pearson requires matching non-empty series")
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// MAPE returns the mean absolute percentage error of predictions
// against truths, skipping zero truths.
func MAPE(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		panic("nn: MAPE requires matching non-empty series")
	}
	var s float64
	var n int
	for i := range pred {
		if truth[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-truth[i]) / math.Abs(truth[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n) * 100
}
