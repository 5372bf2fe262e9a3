package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"temp/internal/hw"
)

// fitDigest is the SHA-256 of the float64 bits of every prediction
// TestSurrogateFitDigest makes. It pins the trained surrogates bit for
// bit: any change to the order in which nn accumulates a sum moves it.
const fitDigest = "2e85507eda5cb2c0fc861bfc51639bc07e197ff838914efd01efe521629bc2f2"

// TestSurrogateFitDigest hashes the quick Fig. 21 DNN predictions of
// all three categories (seeds 100+cat, 600 training and 200 test
// samples, as the experiment draws them) plus one operator-level fit.
func TestSurrogateFitDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go compiler fuses x*y+z into one multiply-add on arm64,
		// ppc64 and s390x, which rounds once instead of twice; the
		// digest holds only where each product and sum round apart.
		t.Skipf("digest recorded on amd64; %s fuses multiply-add", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("training run")
	}
	w := hw.EvaluationWafer()
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, cat := range []Category{Compute, Comm, Overlap} {
		rng := rand.New(rand.NewSource(100 + int64(cat)))
		train := Generate(cat, 600, w, rng)
		test := Generate(cat, 200, w, rng)
		d := TrainDNN(train, rng)
		for _, s := range test {
			put(d.Predict(s.Features))
		}
	}
	rng := rand.New(rand.NewSource(11))
	train := Generate(Comm, 300, w, rng)
	test := Generate(Comm, 100, w, rng)
	op := TrainOpDNN(train, 0, 0, rng)
	for _, s := range test {
		put(op.Predict(s.Features))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fitDigest {
		t.Errorf("surrogate fit digest %s, want %s", got, fitDigest)
	}
}
