package infer

import (
	"testing"

	"boosthd/internal/hdc"
)

// BenchmarkPredictBatchFloat measures the float engine end to end at
// Dtotal=10000, NL=10 (raw features in, labels out).
func BenchmarkPredictBatchFloat(b *testing.B) {
	model, X, _ := fixture(b, 10000, 10)
	e := NewEngine(model)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PredictBatch(X); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(X)), "rows/op")
}

// BenchmarkPredictBatchBinary measures the packed-binary engine end to
// end on the same workload: sign-only encoding plus Hamming scoring.
func BenchmarkPredictBatchBinary(b *testing.B) {
	model, X, _ := fixture(b, 10000, 10)
	e, err := NewBinaryEngine(model)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PredictBatch(X); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(X)), "rows/op")
}

// BenchmarkPredictBatchBinaryRow measures the packed-binary engine on a
// one-row batch — what the batcher's lone-caller path sends a lightly
// loaded server — so the one-row encode kernel and per-call scratch
// sizing are guarded, not only the 100-row block path.
func BenchmarkPredictBatchBinaryRow(b *testing.B) {
	model, X, _ := fixture(b, 10000, 10)
	e, err := NewBinaryEngine(model)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PredictBatch(X[:1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreEncodedFloat measures the float scoring stage alone:
// cosine aggregation over pre-encoded full-width hypervectors, with norms
// and scratch hoisted through EncodedPredictor so the loop is
// allocation-free like the binary side's PredictBits.
func BenchmarkScoreEncodedFloat(b *testing.B) {
	model, X, _ := fixture(b, 10000, 10)
	hs, err := model.Enc.EncodeBatch(X)
	if err != nil {
		b.Fatal(err)
	}
	predict, release := model.EncodedPredictor()
	defer release()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for _, h := range hs {
			sink += predict(h)
		}
	}
	_ = sink
	b.ReportMetric(float64(len(hs)), "rows/op")
}

// BenchmarkScoreEncodedBinary measures the packed-binary scoring stage
// alone: XOR/popcount Hamming aggregation over pre-encoded sign bits —
// the word-parallel form wearable hardware executes.
func BenchmarkScoreEncodedBinary(b *testing.B) {
	model, X, _ := fixture(b, 10000, 10)
	bm, err := Quantize(model)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([][]*hdc.BitVector, len(X))
	for i := range qs {
		qs[i] = bm.NewQueryBits()
	}
	if err := model.EncodeSegmentBitsBatch(X, qs); err != nil {
		b.Fatal(err)
	}
	agg := make([]float64, 3)
	scores := make([]float64, 3)
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			sink += bm.PredictBits(q, agg, scores)
		}
	}
	_ = sink
	b.ReportMetric(float64(len(qs)), "rows/op")
}
