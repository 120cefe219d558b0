// Facade: the int8 post-training-quantization backend.
//
// Quantization lifecycle: profile (optionally Protect), Calibrate, then
// Model.Quantize — the returned QuantizedModel runs the whole graph in
// int8 with per-tensor scale/zero-point, quantizing feeds at the input
// boundary and dequantizing the output. A protected model's restriction
// bounds map to int8 clamp limits inside the kernels' saturating
// requantization, so range restriction is free in the quantized domain.
// Campaigns switch to the int8 backend — where every scenario corrupts
// the stored int8 words of the deployed numeric format — by setting
// Campaign.Calibration.
package ranger

import (
	"ranger/internal/core"
	"ranger/internal/data"
	"ranger/internal/graph"
	"ranger/internal/inject"
	"ranger/internal/models"
	"ranger/internal/tensor"
)

// QuantizedModel is a model bound to an int8 execution plan plus a
// private buffer state, returned by Model.Quantize. Run takes float32
// feeds and returns dequantized float32 outputs; everything in between
// is int8.
type QuantizedModel = models.Quantized

// Calibration maps node names to their profiled output value ranges,
// the input of the quantization pass. Build one with Calibrate or
// CalibrateModel.
type Calibration = graph.Calibration

// QuantRange is one node's calibrated output range.
type QuantRange = graph.QRange

// QuantParams are per-tensor affine int8 quantization parameters
// (real = Scale * (q - Zero)).
type QuantParams = tensor.QParams

// QTensor is a dense int8 tensor with per-tensor quantization
// parameters — the value representation of the quantized backend.
type QTensor = tensor.QTensor

// QPlan is an immutable int8 execution plan derived from a compiled
// Plan by QuantizeGraphPlan (or Model.Quantize).
type QPlan = graph.QPlan

// BitFlipInt8 is BitFlips, kept under its old name for callers written
// when int8 faults had a scenario of their own: on the int8 backend
// BitFlips flips bits of the stored int8 words.
type BitFlipInt8 = inject.BitFlips

// CalibrationTypes lists the op types the PTQ calibrator profiles.
func CalibrationTypes() []string { return core.CalibrationTypes() }

// CalibrateModel profiles nBatches of feeds through the model and
// returns the per-node value ranges Quantize needs; feedsFn returns the
// feeds for batch i.
func CalibrateModel(m *Model, nBatches int, feedsFn func(i int) (Feeds, error)) (Calibration, error) {
	return core.CalibrateModel(m, nBatches, feedsFn)
}

// Calibrate derives a PTQ calibration from the first samples of the
// model's training split — the counterpart of Profile for the
// quantization lifecycle. Protected models calibrate the same way (their
// clip outputs are profiled too).
func Calibrate(m *Model, samples int) (Calibration, error) {
	ds, err := DatasetFor(m)
	if err != nil {
		return nil, err
	}
	if n := ds.Len(data.Train); samples > n {
		samples = n
	}
	return core.CalibrateModel(m, samples, func(i int) (Feeds, error) {
		return Feeds{m.Input: ds.Sample(data.Train, i).X}, nil
	})
}

// QuantizeGraphPlan rewrites a compiled plan into an int8 plan under
// the calibrated ranges; most callers want Model.Quantize instead.
func QuantizeGraphPlan(p *Plan, calib Calibration) (*QPlan, error) {
	return graph.Quantize(p, calib)
}
