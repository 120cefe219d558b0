package ranger_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"ranger/internal/models"
	"ranger/internal/tensor"
)

// quantizedOutputPins holds, per zoo architecture, the SHA-256 of the
// int8 serving outputs' float32 bits (little-endian, buildVariants' two
// feeds in order) of the untrained model quantized with the calibration
// of those feeds. The plain and the Ranger-protected model must both
// hash to it.
var quantizedOutputPins = map[string]string{
	"lenet":      "4313cac18ce5e83fdc3861d16a81b8ba5181c7eb4a31b4a434d960463dbbe0da",
	"alexnet":    "5111020e8aae0ea2ddc719faec29e505e1737037f1edcf1cd63e77d3bd2f7ad8",
	"vgg11":      "1380a4629c5fd8ffbdfd103655b0aaad32312284b97f365c6cd24dae88b80b7b",
	"vgg16":      "d70dc0e264ee365dbb9a34bdb5b860d3212018d86403da26f116efd190f4fd33",
	"resnet18":   "422ff6e1753ff42540581fcc6af6316ae43b11e6ab830c7e0fcfb12109a396c1",
	"squeezenet": "f14eb60df9eb315a71f0b7abd13d0e82ef7ebb5535b2a939a07b08c220186520",
	"dave":       "bc5fd955f36e6dedfb82553027b8b0e3c39db20d6c23fd155b99b77f21f820f6",
	"comma":      "3300dd3e9bec01a3d4479461c786d73c19df84703af7ede98911ade61b65ec26",
}

// TestQuantizedZooOutputsPinned pins the int8 serving outputs of every
// architecture bit for bit, plain and protected, and checks that
// restriction adds nothing to int8 serving when the bounds and the
// calibration come from the same samples: every folded clamp limit then
// equals the saturation it folds into, so the protected model's outputs
// equal the plain model's.
func TestQuantizedZooOutputsPinned(t *testing.T) {
	tensor.ForEachKernelPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			for _, name := range models.Names() {
				t.Run(name, func(t *testing.T) { checkQuantizedPin(t, name) })
			}
		})
	})
}

// checkQuantizedPin hashes the plain and protected int8 outputs of one
// architecture and compares them with each other and with the pin.
func checkQuantizedPin(t *testing.T, name string) {
	unprot, prot, feeds := buildVariants(t, name)
	var sums [2]string
	for vi, m := range []*models.Model{unprot, prot} {
		qm, err := m.Quantize(calibrateVariant(t, m, feeds))
		if err != nil {
			t.Fatalf("%s: quantize: %v", m.Name, err)
		}
		h := sha256.New()
		var word [4]byte
		for _, feed := range feeds {
			out, err := qm.Run(feed)
			if err != nil {
				t.Fatalf("%s: int8 run: %v", m.Name, err)
			}
			for _, v := range out.Data() {
				binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
				h.Write(word[:])
			}
		}
		sums[vi] = hex.EncodeToString(h.Sum(nil))
	}
	if sums[0] != sums[1] {
		t.Errorf("protected int8 outputs %s differ from plain %s", sums[1], sums[0])
	}
	if want := quantizedOutputPins[name]; sums[0] != want {
		t.Errorf("plain int8 outputs hash to %s, pinned %s", sums[0], want)
	}
}
