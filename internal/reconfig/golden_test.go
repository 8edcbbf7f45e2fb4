package reconfig

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/workload"
)

// goldenWire pins the serialised form of every dataset's deployment image
// and of the delta to its every-tenth-pattern-swapped sibling (the ledger's
// hot_swap edit): SHA-256 of Image.MarshalBinary, Image.SizeBytes, SHA-256
// of Delta.MarshalBinary and its length. Recorded with the reflection-based
// encoders this package and bitstream had before they became append-based;
// a wire-format change must show up here.
var goldenWire = map[string]struct {
	image      string
	imageBytes int
	delta      string
	deltaBytes int
}{
	"RegexLib":     {"547ea0028a8a025902d3b08c10675d0bb7479bd4cf04a3adc7eee32a3dc71f8e", 153894, "eaccad8840a2b0b972cdb37f99fbac22135e25f93f26019bc26ab2bbf5d76923", 33937},
	"Prosite":      {"4ea5bf74aafd5654371b7c29ecf9906c79c5f9c81c5ca79af6bc9962d7d41bc0", 102548, "8272b6342b3495da27cc25c5f4484e6a6df5589b9be5e409edb3d4ef23d04706", 35158},
	"SpamAssassin": {"3eb4c13838c47848b4b06d91dae58136f6ef83d09a6bf87de0d8a195922858a6", 154206, "c216c99a181643e2f6a241d20d1ba41e6771d74d251b5f42e3e3a14f1f235266", 35102},
	"Snort":        {"45be53f908e9d62f3eb6935ed9a9aa924b512d72817a6c5461a6ad8c04bf992f", 154392, "3316c1a45b6ef1653ca8bf378e056d259e8c109c5ab28a386cfa823bbcc933fd", 42215},
	"Suricata":     {"9a6013b61a4c20434d39428a659f63513424072a89d77a13ab85804b68e57cda", 154362, "224c3c2f0e78dd5bbd33715d823008033d7718443e7dfd9920012684e1d7ea83", 36740},
	"Yara":         {"60bdb28678c4efc6dfc5b347be220961bdb3b094fcec0531b5e33d554b65b00a", 154206, "1e231efc7bd36201819b170a373b397eebd892a83e7ecb803b5982b8df654516", 19153},
	"ClamAV":       {"683ddb0b5dda11cb34d832bd21cb8a586cfb75090a1d7e5a5f770a996484d628", 412076, "8e5c3a609f447f45848886f9f9fc2ed3e41e2cfff6623e23d0b1b67d94af725c", 157102},
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestWireFormatGolden(t *testing.T) {
	for _, name := range workload.Names {
		d := workload.MustGenerate(name, 1, 1)
		other := workload.MustGenerate(name, 1, 2)
		swapped := append([]string(nil), d.Patterns...)
		for i := 0; i < len(swapped) && i < len(other.Patterns); i += 10 {
			swapped[i] = other.Patterns[i]
		}
		img, next := imageFor(t, d.Patterns), imageFor(t, swapped)
		data := marshalled(t, img)
		diff := Diff(img, next)
		delta, err := diff.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := diff.SizeBytes(); got != len(delta) {
			t.Errorf("%s: delta buffer sized %d for %d bytes", name, got, len(delta))
		}
		want, ok := goldenWire[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		if got := sha(data); got != want.image || len(data) != want.imageBytes {
			t.Errorf("%s image: %d bytes sha256 %s, want %d bytes %s", name, len(data), got, want.imageBytes, want.image)
		}
		if got := img.SizeBytes(); got != want.imageBytes {
			t.Errorf("%s SizeBytes = %d, want %d", name, got, want.imageBytes)
		}
		if got := sha(delta); got != want.delta || len(delta) != want.deltaBytes {
			t.Errorf("%s delta: %d bytes sha256 %s, want %d bytes %s", name, len(delta), got, want.deltaBytes, want.delta)
		}
	}
}
