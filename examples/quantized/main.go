// Quantized: deploy a Ranger-protected model as int8 and measure SDC
// rates of the deployed numeric format.
//
// The pipeline extends the quickstart with the quantization lifecycle:
// profile → protect → calibrate → quantize. The protected model's
// restriction bounds become int8 clamp limits inside the quantized
// kernels' saturating requantization, so protection is free at run
// time; on the int8 backend the bit-flip scenario then flips bits of the
// stored int8 words — the fault model a quantized deployment actually
// faces.
//
// Run with: go run ./examples/quantized
package main

import (
	"context"
	"fmt"
	"log"

	"ranger"
)

func main() {
	ctx := context.Background()

	ranger.DefaultZoo().Quiet = false
	model, err := ranger.LoadModel("lenet")
	if err != nil {
		log.Fatal(err)
	}
	ds, err := ranger.DatasetFor(model)
	if err != nil {
		log.Fatal(err)
	}

	// Profile restriction bounds and insert Ranger (§III-C).
	bounds, err := ranger.Profile(model, 32)
	if err != nil {
		log.Fatal(err)
	}
	protected, _, err := ranger.Protect(model, bounds, ranger.ProtectOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Calibrate every operator's value range on training data — the PTQ
	// counterpart of profiling — and quantize both variants to int8.
	calib, err := ranger.Calibrate(model, 32)
	if err != nil {
		log.Fatal(err)
	}
	pcalib, err := ranger.Calibrate(protected, 32)
	if err != nil {
		log.Fatal(err)
	}
	qm, err := model.Quantize(calib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quantized %s: %d int8 steps over %d buffers\n",
		model.Name, qm.Plan.Steps(), qm.Plan.Slots())

	// Run the quantized model: float feeds in, dequantized logits out.
	sample := ds.Sample(ranger.ValSplit, 0)
	out, err := qm.Run(ranger.Feeds{model.Input: sample.X})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("int8 prediction: %d (label %d)\n", out.ArgMax(), sample.Label)

	// Campaigns on the int8 backend: faults flip bits of stored int8
	// values. The protected model's clamps are already inside the
	// quantized kernels.
	inputs := []ranger.Feeds{{model.Input: sample.X}}
	orig, err := (&ranger.Campaign{
		Model: model, Calibration: calib,
		Scenario: ranger.BitFlips{Flips: 1}, Trials: 2000, Seed: 1,
	}).Run(ctx, inputs)
	if err != nil {
		log.Fatal(err)
	}
	prot, err := (&ranger.Campaign{
		Model: protected, Calibration: pcalib,
		Scenario: ranger.BitFlips{Flips: 1}, Trials: 2000, Seed: 1,
	}).Run(ctx, inputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("int8 SDC rate without Ranger: %5.2f%%\n", orig.Top1Rate()*100)
	fmt.Printf("int8 SDC rate with    Ranger: %5.2f%%\n", prot.Top1Rate()*100)
}
