package ranger_test

import (
	"testing"

	"ranger"
	"ranger/internal/models"
)

// TestQuantizedRunAllocs caps the allocations of one int8 serving call
// on one worker: resnet18 runs the residual Add kernel, comma the
// general-stage (ELU) requantize. The caps are the counts those kernels
// had as per-element loops; their block buffers live on the stack, so
// neither may add an allocation.
func TestQuantizedRunAllocs(t *testing.T) {
	ranger.SetWorkers(1)
	defer ranger.SetWorkers(0)
	for _, tc := range []struct {
		name string
		max  float64
	}{{"resnet18", 8}, {"comma", 10}} {
		unprot, prot, feeds := buildVariants(t, tc.name)
		for _, m := range []*models.Model{unprot, prot} {
			qm, err := m.Quantize(calibrateVariant(t, m, feeds))
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, err := qm.Run(feeds[0]); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if n := testing.AllocsPerRun(20, run); n > tc.max {
				t.Errorf("%s: %v allocations per int8 Run, want at most %v", m.Name, n, tc.max)
			}
		}
	}
}
