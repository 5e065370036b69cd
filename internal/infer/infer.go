// Package infer is the serving layer over trained BoostHD ensembles: one
// Engine type that fronts the fused float batch pipeline and, after
// Quantize, a packed-binary backend that stores the model as bit vectors
// and scores queries with XOR/popcount Hamming similarity — the
// representation wearable-class hardware executes natively.
//
// The float backend reproduces the historical inference path: scoring is
// arithmetically bit-identical given the same encodings (pinned by the
// legacy-path regression test), and the encoder's activation was
// rewritten through an exact trigonometric identity, so encodings agree
// to floating-point rounding. The binary backend trades a controlled
// amount of accuracy for an order of magnitude less model memory and
// word-parallel scoring, the deployment point of the paper's Section V
// discussion.
package infer

import (
	"fmt"

	"boosthd/internal/boosthd"
	"boosthd/internal/obs"
)

// Backend selects the model representation an Engine scores with.
type Backend int

const (
	// Float scores full-precision class hypervectors with cosine
	// similarity — the paper's reference inference rule.
	Float Backend = iota
	// PackedBinary scores thresholded bit-vector class memories with
	// Hamming similarity over packed 64-bit words.
	PackedBinary
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case Float:
		return "float"
	case PackedBinary:
		return "packed-binary"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Engine serves predictions from a trained BoostHD ensemble through a
// selected backend. Engines are cheap to construct; the expensive state
// (quantized class memories) lives in the BinaryModel built by Quantize.
type Engine struct {
	model   *boosthd.Model
	backend Backend
	bin     *BinaryModel
}

// NewEngine returns a float-backend engine over m.
func NewEngine(m *boosthd.Model) *Engine {
	return &Engine{model: m, backend: Float}
}

// NewBinaryEngine quantizes m and returns a packed-binary engine.
func NewBinaryEngine(m *boosthd.Model) (*Engine, error) {
	bin, err := Quantize(m)
	if err != nil {
		return nil, err
	}
	return &Engine{model: m, backend: PackedBinary, bin: bin}, nil
}

// Backend reports which representation the engine scores with.
func (e *Engine) Backend() Backend { return e.backend }

// Binary returns the quantized model backing a PackedBinary engine, or
// nil for a float engine.
func (e *Engine) Binary() *BinaryModel { return e.bin }

// Model returns the underlying float ensemble.
func (e *Engine) Model() *boosthd.Model { return e.model }

// InputDim returns the raw feature width the engine's encoders expect.
func (e *Engine) InputDim() int { return e.model.InputDim() }

// Predict classifies one raw feature vector.
func (e *Engine) Predict(x []float64) (int, error) {
	if e.backend == PackedBinary {
		return e.bin.Predict(x)
	}
	return e.model.Predict(x)
}

// PredictBatch classifies rows through the backend's batch pipeline.
func (e *Engine) PredictBatch(X [][]float64) ([]int, error) {
	return e.PredictBatchStaged(X, nil)
}

// PredictBatchStaged is PredictBatch with per-phase accounting: when
// stages is non-nil the backend adds its encode and score wall time to
// it. The serving layer passes a stack-local StageTimes per batch and
// feeds the result into the observability histograms; a nil stages
// costs one branch per 32-row block.
func (e *Engine) PredictBatchStaged(X [][]float64, stages *obs.StageTimes) ([]int, error) {
	if e.backend == PackedBinary {
		return e.bin.PredictBatchStaged(X, stages)
	}
	return e.model.PredictBatchStaged(X, stages)
}

// Evaluate returns plain accuracy on a labeled set through the selected
// backend.
func (e *Engine) Evaluate(X [][]float64, y []int) (float64, error) {
	if e.backend == PackedBinary {
		return e.bin.Evaluate(X, y)
	}
	return e.model.Evaluate(X, y)
}

// EvaluateLearners scores each weak learner standalone on a labeled set
// through the backend that actually serves — the reliability canary
// probe. The binary backend scores its quantized planes (the memory that
// could be corrupted), the float backend the float class vectors.
func (e *Engine) EvaluateLearners(X [][]float64, y []int) ([]float64, error) {
	if e.backend == PackedBinary {
		return e.bin.EvaluateLearners(X, y)
	}
	return e.model.EvaluateLearners(X, y)
}

// View builds the engine serving v over root (see boosthd.Model.View)
// through cur's backend — the one constructor behind quarantines and
// tenant views. root supplies the weights: the unmasked base for a
// quarantine, so repair can unmask; cur.Model() for a tenant, so the
// overrides compose onto whatever quarantine cur serves. A packed-binary
// view shares cur's quantized snapshot and re-thresholds only a delta's
// overrides, so a quarantine never re-trusts float memory. The result
// predicts bit-for-bit like an engine over the materialized model.
func View(cur *Engine, root *boosthd.Model, v boosthd.View) (*Engine, error) {
	mv, err := root.View(v)
	if err != nil {
		return nil, fmt.Errorf("infer: %w", err)
	}
	if cur.backend != PackedBinary {
		return &Engine{model: mv, backend: Float}, nil
	}
	var requantize []int
	if v.Delta != nil {
		requantize = v.Delta.Indexes()
	}
	bin, err := cur.bin.view(mv, requantize)
	if err != nil {
		return nil, err
	}
	return &Engine{model: mv, backend: PackedBinary, bin: bin}, nil
}
