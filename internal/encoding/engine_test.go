package encoding

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"boosthd/internal/hdc"
)

func randRows(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64() * 2
		}
		out[i] = row
	}
	return out
}

// legacyEncode computes the original two-call activation
// cos(d+b)*sin(d) straight from the encoder's internals.
func legacyEncode(e *Encoder, x []float64) hdc.Vector {
	h := make(hdc.Vector, e.OutDim)
	for j := 0; j < e.OutDim; j++ {
		row := e.w[j*e.InDim : (j+1)*e.InDim]
		var dot float64
		for k, xv := range x {
			dot += row[k] * xv
		}
		dot *= e.Gamma
		switch e.Kind {
		case Nonlinear:
			h[j] = math.Cos(dot+e.b[j]) * math.Sin(dot)
		case RFF:
			h[j] = math.Cos(dot + e.b[j])
		default:
			h[j] = dot
		}
	}
	return h
}

// TestNonlinearMatchesLegacyActivation pins the product-to-sum rewrite:
// 0.5*sin(2d+b) - 0.5*sin(b) must equal cos(d+b)*sin(d) to floating-point
// noise (the identity is exact in real arithmetic).
func TestNonlinearMatchesLegacyActivation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		e, err := New(9, 512, kind, 23)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range randRows(rng, 8, 9) {
			got, err := e.Encode(x)
			if err != nil {
				t.Fatal(err)
			}
			want := legacyEncode(e, x)
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-12 {
					t.Fatalf("kind %v comp %d: new %v vs legacy %v", kind, j, got[j], want[j])
				}
			}
		}
	}
}

// TestEncodeBatchIntoStrided checks the flat strided writer against the
// single-row path, across row counts straddling the register blocks, with
// a nonzero offset and surrounding guard regions left untouched.
func TestEncodeBatchIntoStrided(t *testing.T) {
	e, err := New(7, 130, Nonlinear, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 3, 4, 5, 32, 37} {
		xs := randRows(rng, n, 7)
		const offset = 3
		stride := offset + e.OutDim + 2
		out := make([]float64, n*stride)
		for i := range out {
			out[i] = -99
		}
		if err := e.EncodeBatchInto(xs, out, stride, offset); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			single, err := e.Encode(x)
			if err != nil {
				t.Fatal(err)
			}
			row := out[i*stride:]
			for p := 0; p < offset; p++ {
				if row[p] != -99 {
					t.Fatalf("n=%d row %d: guard before offset overwritten", n, i)
				}
			}
			for j := range single {
				if row[offset+j] != single[j] {
					t.Fatalf("n=%d row %d comp %d: strided %v != single %v", n, i, j, row[offset+j], single[j])
				}
			}
			for p := offset + e.OutDim; p < stride; p++ {
				if row[p] != -99 {
					t.Fatalf("n=%d row %d: guard after row overwritten", n, i)
				}
			}
		}
	}
	// Validation errors.
	xs := randRows(rng, 2, 7)
	if err := e.EncodeBatchInto(xs, make([]float64, 10), e.OutDim, 0); err == nil {
		t.Fatal("expected short-buffer error")
	}
	if err := e.EncodeBatchInto(xs, make([]float64, 2*e.OutDim), e.OutDim-1, 0); err == nil {
		t.Fatal("expected bad-stride error")
	}
	if err := e.EncodeBatchInto([][]float64{{1}}, make([]float64, e.OutDim), e.OutDim, 0); err == nil {
		t.Fatal("expected bad-row error")
	}
}

// TestEncodeIntoMatchesEncode checks the allocation-free single-row entry.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	e, err := New(4, 96, Nonlinear, 31)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.4, -1.2, 0.05, 2.2}
	dst := make([]float64, 96)
	if err := e.EncodeInto(x, dst); err != nil {
		t.Fatal(err)
	}
	h, err := e.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range h {
		if h[j] != dst[j] {
			t.Fatalf("comp %d: EncodeInto %v != Encode %v", j, dst[j], h[j])
		}
	}
	if err := e.EncodeInto(x, make([]float64, 5)); err == nil {
		t.Fatal("expected dst-length error")
	}
}

// TestEncodeBitsMatchesFloatSigns checks the sign-only path against
// thresholding the float encoding, for every kind and an unaligned range.
func TestEncodeBitsMatchesFloatSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		e, err := New(6, 200, kind, 13)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := 35, 185 // straddles word boundaries, width 150
		for _, x := range randRows(rng, 6, 6) {
			h, err := e.Encode(x)
			if err != nil {
				t.Fatal(err)
			}
			bits := hdc.NewBitVector(hi - lo)
			if err := e.EncodeBitsRange(x, lo, hi, bits); err != nil {
				t.Fatal(err)
			}
			for j := lo; j < hi; j++ {
				want := h[j] >= 0
				if got := bits.Get(j - lo); got != want {
					t.Fatalf("kind %v comp %d: bit %v, float %v (h=%v)", kind, j, got, want, h[j])
				}
			}
		}
	}
}

// TestEncodeBitsRangeBatchMatchesPerRow checks the register-blocked batch
// bits kernel against the scalar path across block-boundary row counts.
func TestEncodeBitsRangeBatchMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	e, err := New(5, 150, Nonlinear, 19)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 4, 5, 8, 9} {
		xs := randRows(rng, n, 5)
		dst := make([]*hdc.BitVector, n)
		for i := range dst {
			dst[i] = hdc.NewBitVector(150)
		}
		if err := e.EncodeBitsRangeBatch(xs, 0, 150, dst); err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			want := hdc.NewBitVector(150)
			if err := e.EncodeBitsRange(x, 0, 150, want); err != nil {
				t.Fatal(err)
			}
			for w := range want.Words {
				if dst[i].Words[w] != want.Words[w] {
					t.Fatalf("n=%d row %d word %d: batch %x != scalar %x", n, i, w, dst[i].Words[w], want.Words[w])
				}
			}
		}
	}
}

// scalarProject is the per-component projection the one-row kernels
// replaced: one dot product per component, accumulated in index order,
// then scaled by Gamma.
func scalarProject(e *Encoder, j int, x []float64) float64 {
	row := e.w[j*e.InDim : (j+1)*e.InDim]
	var dot float64
	for k, wv := range row {
		dot += wv * x[k]
	}
	return dot * e.Gamma
}

// scalarBits is the per-component sign loop the one-row kernel replaced.
func scalarBits(e *Encoder, x []float64, lo, hi int) *hdc.BitVector {
	dst := hdc.NewBitVector(hi - lo)
	for j := lo; j < hi; j++ {
		d := scalarProject(e, j, x)
		switch e.Kind {
		case Nonlinear:
			sinNeg := phaseFrac(d) > 0.5
			fc := phaseFrac(d + e.b[j])
			cosNeg := fc > 0.25 && fc < 0.75
			dst.Set(j-lo, sinNeg == cosNeg)
		case RFF:
			fc := phaseFrac(d + e.b[j])
			dst.Set(j-lo, !(fc > 0.25 && fc < 0.75))
		default:
			dst.Set(j-lo, d >= 0)
		}
	}
	return dst
}

// scalarEncode is the per-component float loop the one-row kernel
// replaced.
func scalarEncode(e *Encoder, x []float64) []float64 {
	dst := make([]float64, e.OutDim)
	for j := range dst {
		d := scalarProject(e, j, x)
		switch e.Kind {
		case Nonlinear:
			dst[j] = 0.5*math.Sin(2*d+e.b[j]) - e.halfSinB[j]
		case RFF:
			dst[j] = math.Cos(d + e.b[j])
		default:
			dst[j] = d
		}
	}
	return dst
}

// TestBlockedKernelOneRowMatchesScalar pins the one-row register-blocked
// kernels (four components per projection sweep, branch-free sign
// packing) to the scalar per-component loops bit for bit: EncodeBitsRange,
// the remainder rows of EncodeBitsRangeBatch, EncodeInto, and the
// remainder rows of EncodeBatchInto. It covers every kind, both stored
// projection modes, feature widths around a sign word (36, 37) and below
// one register block, and ranges whose widths are not multiples of 4 or 64.
func TestBlockedKernelOneRowMatchesScalar(t *testing.T) {
	const outDim = 1001
	ranges := []struct{ lo, hi int }{{0, outDim}, {35, 185}, {3, 66}, {998, 1001}}
	for _, kind := range []Kind{Nonlinear, RFF, Linear} {
		for _, proj := range []Projection{ProjStored, ProjSeededStored} {
			for _, in := range []int{5, 36, 37} {
				var e *Encoder
				var err error
				if proj == ProjStored {
					e, err = New(in, outDim, kind, int64(in))
				} else {
					e, err = NewSeeded(in, outDim, kind, int64(in), proj)
				}
				if err != nil {
					t.Fatal(err)
				}
				xs := randRows(rand.New(rand.NewSource(int64(in)+100)), 9, in)
				xs[0] = make([]float64, in) // all-zero row: every projection is +0
				name := fmt.Sprintf("%v/%v/in=%d", kind, proj, in)

				for _, r := range ranges {
					want := make([]*hdc.BitVector, len(xs))
					for i, x := range xs {
						want[i] = scalarBits(e, x, r.lo, r.hi)
						got := hdc.NewBitVector(r.hi - r.lo)
						if err := e.EncodeBitsRange(x, r.lo, r.hi, got); err != nil {
							t.Fatal(err)
						}
						assertWords(t, fmt.Sprintf("%s EncodeBitsRange [%d,%d) row %d", name, r.lo, r.hi, i), got, want[i])
					}
					for n := 1; n <= len(xs); n++ {
						dst := make([]*hdc.BitVector, n)
						for i := range dst {
							dst[i] = hdc.NewBitVector(r.hi - r.lo)
						}
						if err := e.EncodeBitsRangeBatch(xs[:n], r.lo, r.hi, dst); err != nil {
							t.Fatal(err)
						}
						for i := range dst {
							assertWords(t, fmt.Sprintf("%s EncodeBitsRangeBatch n=%d [%d,%d) row %d", name, n, r.lo, r.hi, i), dst[i], want[i])
						}
					}
				}

				flat := make([]float64, len(xs)*outDim)
				if err := e.EncodeBatchInto(xs, flat, outDim, 0); err != nil {
					t.Fatal(err)
				}
				got := make([]float64, outDim)
				for i, x := range xs {
					want := scalarEncode(e, x)
					if err := e.EncodeInto(x, got); err != nil {
						t.Fatal(err)
					}
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s EncodeInto row %d comp %d: %v != scalar %v", name, i, j, got[j], want[j])
						}
						if b := flat[i*outDim+j]; math.Float64bits(b) != math.Float64bits(want[j]) {
							t.Fatalf("%s EncodeBatchInto row %d comp %d: %v != scalar %v", name, i, j, b, want[j])
						}
					}
				}
			}
		}
	}
}

func assertWords(t *testing.T, what string, got, want *hdc.BitVector) {
	t.Helper()
	for w := range want.Words {
		if got.Words[w] != want.Words[w] {
			t.Fatalf("%s: word %d: kernel %x != scalar %x", what, w, got.Words[w], want.Words[w])
		}
	}
}
