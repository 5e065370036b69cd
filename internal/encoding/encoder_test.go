package encoding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"boosthd/internal/hdc"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10, Nonlinear, 1); err == nil {
		t.Error("expected error for inDim=0")
	}
	if _, err := New(10, 0, Nonlinear, 1); err == nil {
		t.Error("expected error for outDim=0")
	}
}

func TestEncodeShapeAndRange(t *testing.T) {
	e, err := New(4, 128, Nonlinear, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Encode([]float64{0.1, -0.5, 1.2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 128 {
		t.Fatalf("len(h) = %d, want 128", len(h))
	}
	// cos*sin is bounded by 1 in magnitude.
	for _, v := range h {
		if math.Abs(v) > 1 {
			t.Fatalf("nonlinear activation out of range: %v", v)
		}
	}
	if _, err := e.Encode([]float64{1}); err == nil {
		t.Error("expected length error")
	}
}

func TestEncoderDeterministicPerSeed(t *testing.T) {
	x := []float64{0.3, 0.7, -0.2}
	a, _ := New(3, 64, Nonlinear, 7)
	b, _ := New(3, 64, Nonlinear, 7)
	c, _ := New(3, 64, Nonlinear, 8)
	ha, _ := a.Encode(x)
	hb, _ := b.Encode(x)
	hc, _ := c.Encode(x)
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatal("same seed must give identical encodings")
		}
	}
	same := true
	for i := range ha {
		if ha[i] != hc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different encodings")
	}
}

func TestEncoderKinds(t *testing.T) {
	x := []float64{0.5, -1}
	for _, k := range []Kind{Nonlinear, RFF, Linear} {
		e, err := New(2, 32, k, 3)
		if err != nil {
			t.Fatal(err)
		}
		h, err := e.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		if len(h) != 32 {
			t.Fatalf("kind %v: wrong length", k)
		}
		if k == RFF {
			for _, v := range h {
				if v < -1 || v > 1 {
					t.Fatalf("RFF out of [-1,1]: %v", v)
				}
			}
		}
	}
	if Nonlinear.String() != "nonlinear" || RFF.String() != "rff" || Linear.String() != "linear" {
		t.Error("Kind.String broken")
	}
	if Kind(99).String() == "" {
		t.Error("unknown Kind should still print")
	}
}

func TestEncodingPreservesLocality(t *testing.T) {
	// Nearby inputs must stay more similar than distant inputs — the
	// property that makes HDC classification work at all.
	e, _ := New(6, 4096, Nonlinear, 11)
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.Float64()
	}
	near := make([]float64, 6)
	far := make([]float64, 6)
	for i := range x {
		near[i] = x[i] + 0.01*rng.NormFloat64()
		far[i] = x[i] + 2*rng.NormFloat64()
	}
	hx, _ := e.Encode(x)
	hn, _ := e.Encode(near)
	hf, _ := e.Encode(far)
	simNear := hdc.Cosine(hx, hn)
	simFar := hdc.Cosine(hx, hf)
	if simNear <= simFar {
		t.Errorf("locality violated: near %v <= far %v", simNear, simFar)
	}
	if simNear < 0.8 {
		t.Errorf("tiny perturbation should stay close: %v", simNear)
	}
}

func TestEncodeBatchMatchesEncode(t *testing.T) {
	e, _ := New(3, 256, Nonlinear, 13)
	xs := [][]float64{{1, 2, 3}, {0, 0, 0}, {-1, 0.5, 2}}
	batch, err := e.EncodeBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		single, _ := e.Encode(x)
		for j := range single {
			if single[j] != batch[i][j] {
				t.Fatalf("batch row %d differs from single encode", i)
			}
		}
	}
	// Errors propagate.
	if _, err := e.EncodeBatch([][]float64{{1, 2, 3}, {1}}); err == nil {
		t.Error("expected batch error for bad row")
	}
	// Empty batch is fine.
	if out, err := e.EncodeBatch(nil); err != nil || len(out) != 0 {
		t.Error("empty batch should succeed")
	}
}

func TestProjectionMatrixIsCopy(t *testing.T) {
	e, _ := New(2, 8, Linear, 1)
	m := e.ProjectionMatrix()
	if len(m) != 16 {
		t.Fatalf("len = %d, want 16", len(m))
	}
	m[0] += 100
	m2 := e.ProjectionMatrix()
	if m2[0] == m[0] {
		t.Error("ProjectionMatrix must return a copy")
	}
}

// Property: encoding is deterministic — same input twice gives the same
// hypervector.
func TestEncodeDeterministicQuick(t *testing.T) {
	e, _ := New(4, 64, Nonlinear, 21)
	f := func(a, b, c, d float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 100)
		}
		x := []float64{clamp(a), clamp(b), clamp(c), clamp(d)}
		h1, err1 := e.Encode(x)
		h2, err2 := e.Encode(x)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range h1 {
			if h1[i] != h2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewIDLevelValidation(t *testing.T) {
	if _, err := NewIDLevel(0, 10, 4, 0, 1, 1); err == nil {
		t.Error("expected inDim error")
	}
	if _, err := NewIDLevel(2, 10, 1, 0, 1, 1); err == nil {
		t.Error("expected levels error")
	}
	if _, err := NewIDLevel(2, 10, 4, 1, 1, 1); err == nil {
		t.Error("expected range error")
	}
}

func TestIDLevelLocality(t *testing.T) {
	e, err := NewIDLevel(1, 4096, 16, 0, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent levels are more similar than distant levels.
	simNear := e.LevelSim(0, 1)
	simFar := e.LevelSim(0, 15)
	if simNear <= simFar {
		t.Errorf("level locality violated: near %v <= far %v", simNear, simFar)
	}
	if e.LevelSim(0, 99) != 0 {
		t.Error("out-of-range level sim should be 0")
	}
}

func TestIDLevelEncode(t *testing.T) {
	e, err := NewIDLevel(3, 2048, 8, 0, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Encode([]float64{0.1, 0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 2048 {
		t.Fatalf("len = %d", len(h))
	}
	if _, err := e.Encode([]float64{1}); err == nil {
		t.Error("expected length error")
	}
	// Clamping: out-of-range values quantize to the extreme levels.
	hLow, _ := e.Encode([]float64{-5, -5, -5})
	hLow2, _ := e.Encode([]float64{0, 0, 0})
	for i := range hLow {
		if hLow[i] != hLow2[i] {
			t.Fatal("values below range must clamp to level 0")
		}
	}
}

func TestIDLevelSeparatesInputs(t *testing.T) {
	e, _ := NewIDLevel(4, 4096, 16, 0, 1, 23)
	a, _ := e.Encode([]float64{0.1, 0.1, 0.1, 0.1})
	b, _ := e.Encode([]float64{0.9, 0.9, 0.9, 0.9})
	aa, _ := e.Encode([]float64{0.12, 0.1, 0.11, 0.1})
	if hdc.Cosine(a, aa) <= hdc.Cosine(a, b) {
		t.Error("ID-level encoding should place similar inputs closer")
	}
}

// TestCheckRowRejectsNonFinite: the row validator refuses NaN, ±Inf and
// features large enough to overflow the projection, on every kind and
// projection mode, and a row just inside the limit — all features the
// same sign, the worst case for the dot product — still encodes to
// finite values.
func TestCheckRowRejectsNonFinite(t *testing.T) {
	const inDim, outDim = 36, 128
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		for _, proj := range []Projection{ProjStored, ProjSeededStored, ProjSeeded} {
			var e *Encoder
			var err error
			if proj == ProjStored {
				e, err = NewWithGamma(inDim, outDim, kind, 3, 5)
			} else {
				e, err = NewSeededWithGamma(inDim, outDim, kind, 3, 5, proj)
			}
			if err != nil {
				t.Fatal(err)
			}
			row := func(v float64) []float64 {
				x := make([]float64, inDim)
				for k := range x {
					x[k] = 0.5
				}
				x[inDim/2] = v
				return x
			}
			if err := e.CheckRow(row(-1.5)); err != nil {
				t.Fatalf("%v/%v: ordinary row refused: %v", kind, proj, err)
			}
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308} {
				if err := e.CheckRow(row(bad)); err == nil {
					t.Errorf("%v/%v: feature %v accepted", kind, proj, bad)
				}
			}
			if err := e.CheckRow(make([]float64, inDim-1)); err == nil {
				t.Errorf("%v/%v: short row accepted", kind, proj)
			}
			edge := make([]float64, inDim)
			for k := range edge {
				edge[k] = 0.999 * e.FeatureLimit()
			}
			if err := e.CheckRow(edge); err != nil {
				t.Fatalf("%v/%v: row inside the limit refused: %v", kind, proj, err)
			}
			h, err := e.Encode(edge)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range h {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%v/%v: component %d of an admitted row is %v", kind, proj, j, v)
				}
			}
		}
	}
}
