// Golden suite for the int8 PTQ backend: every zoo architecture,
// protected and unprotected, must run end-to-end through the quantized
// plan, and the dequantized output must stay within the documented
// tolerance of the fp32 output:
//
//	tol = 6% of the calibrated output range
//	    + 4 output quantization steps
//	    + 1% of the largest calibrated intermediate range
//
// Per-tensor int8 accumulates roughly one step of noise per layer, and
// that noise is absolute with respect to the *intermediate* scales — a
// model whose head contracts a wide activation range into a narrow
// output (comma's steering head) carries intermediate noise that is
// large relative to its output span, hence the third term. The bound
// holds with margin across the zoo's deepest models and the comparison
// is deterministic, so any regression is a real behavior change, not
// flake.
package ranger_test

import (
	"math"
	"testing"

	"ranger/internal/core"
	"ranger/internal/graph"
	"ranger/internal/models"
)

// quantTolerance returns the documented comparison tolerance for a
// model whose output range was calibrated as r, given the full
// calibration (for the largest intermediate range).
func quantTolerance(r graph.QRange, calib graph.Calibration) float64 {
	rng := r.Hi - r.Lo
	step := rng / 255
	maxRange := 0.0
	for _, q := range calib {
		if s := q.Hi - q.Lo; s > maxRange {
			maxRange = s
		}
	}
	return 0.06*rng + 4*step + 0.01*maxRange
}

func calibrateVariant(t *testing.T, m *models.Model, feeds []graph.Feeds) graph.Calibration {
	t.Helper()
	calib, err := core.CalibrateModel(m, len(feeds), func(i int) (graph.Feeds, error) {
		return feeds[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return calib
}

func TestGoldenQuantizedZoo(t *testing.T) {
	for _, name := range goldenModels(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			unprot, prot, feeds := buildVariants(t, name)
			for _, m := range []*models.Model{unprot, prot} {
				calib := calibrateVariant(t, m, feeds)
				qm, err := m.Quantize(calib)
				if err != nil {
					t.Fatalf("%s: quantize: %v", m.Name, err)
				}
				outR, ok := calib[m.Output]
				if !ok {
					t.Fatalf("%s: no calibration for output %q", m.Name, m.Output)
				}
				tol := quantTolerance(outR, calib)
				var e graph.Executor
				var qOuts [][]float32
				for fi, feed := range feeds {
					want, err := e.Run(m.Graph, feed, m.Output)
					if err != nil {
						t.Fatal(err)
					}
					got, err := qm.Run(feed)
					if err != nil {
						t.Fatalf("%s: int8 run: %v", m.Name, err)
					}
					wd, gd := want[0].Data(), got.Data()
					if len(wd) != len(gd) {
						t.Fatalf("%s feed %d: %d elements, want %d", m.Name, fi, len(gd), len(wd))
					}
					worst := 0.0
					for i := range wd {
						if d := math.Abs(float64(wd[i] - gd[i])); d > worst {
							worst = d
						}
					}
					if worst > tol {
						t.Fatalf("%s feed %d: max |int8 - fp32| = %g > tolerance %g (output range %g)",
							m.Name, fi, worst, tol, outR.Hi-outR.Lo)
					}
					qOuts = append(qOuts, append([]float32{}, gd...))
				}
				// The feeds stacked into one [B, ...] feed: each lane equals
				// that feed's own int8 run.
				stacked, err := qm.Run(stackLanes(feeds))
				if err != nil {
					t.Fatalf("%s: stacked int8 run: %v", m.Name, err)
				}
				lanesEqual(t, m.Name+" stacked int8", qOuts, stacked)
				// RunBatch agrees bit-for-bit with Run at every worker count.
				for _, workers := range []int{1, 2, 0} {
					outs, err := qm.RunBatch(feeds, workers)
					if err != nil {
						t.Fatal(err)
					}
					for fi := range feeds {
						for i, v := range outs[fi].Data() {
							if math.Float32bits(v) != math.Float32bits(qOuts[fi][i]) {
								t.Fatalf("%s RunBatch(%d workers) feed %d element %d differs", m.Name, workers, fi, i)
							}
						}
					}
				}
			}
		})
	}
}
