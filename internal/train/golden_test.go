package train

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// goldenArchs are the four architectures with the example shapes each one
// trains on in TestGoldenLosses and is allocation-checked on in
// allocs_test.go.
var goldenArchs = []struct {
	name       string
	factory    ModelFactory
	in, target []int // per-example shapes
}{
	{"LSTM", func(rng *rand.Rand) Model { return NewLSTMModel(rng, 3, 8, 1) },
		[]int{4, 3}, []int{1}},
	{"MLP_Transformer", func(rng *rand.Rand) Model { return NewMLPTransformer(rng, 3, 8, 2, 1, 4) },
		[]int{2, 6, 3}, []int{2, 1, 4, 4, 4}},
	{"CNN_Transformer", func(rng *rand.Rand) Model { return NewCNNTransformer(rng, 2, 8, 2, 1, 8) },
		[]int{2, 2, 8, 8, 8}, []int{2, 1, 8, 8, 8}},
	{"MATEY", func(rng *rand.Rand) Model { return NewMATEYModel(rng, 2, 8, 2, 1, 8) },
		[]int{2, 2, 8, 8, 8}, []int{2, 1, 8, 8, 8}},
}

func goldenExamples(n int, in, target []int) []Example {
	rng := rand.New(rand.NewSource(99))
	ex := make([]Example, n)
	for i := range ex {
		ex[i] = Example{Input: tensor.Randn(rng, 1, in...), Target: tensor.Randn(rng, 1, target...)}
	}
	return ex
}

// goldenLosses holds, per architecture and rank count, the five TrainLoss,
// five TestLoss and the FinalLoss of the run TestGoldenLosses makes, as
// hex floats captured at commit cb48a56 — the last one whose trainer
// allocated every temporary afresh. A workspace slot handed out stale,
// aliased or unzeroed moves a bit somewhere in these 88 numbers.
var goldenLosses = map[string]string{
	"LSTM/ranks=1":            "0x1.068bf24ef9044p+00 0x1.128dcd91415f8p+00 0x1.01b5c1c1f3b5dp+00 0x1.01bc4f9acebb2p+00 0x1.f9dbde2530972p-01 0x1.1daa5f9065cccp-01 0x1.1f707b844e05bp-01 0x1.2594979b82c19p-01 0x1.2b9ec4ce6e3f6p-01 0x1.30b55537f9dedp-01 0x1.30b55537f9dedp-01",
	"LSTM/ranks=2":            "0x1.068bf24ef9044p+00 0x1.128dcd91415f7p+00 0x1.01b5c1c1f3b5cp+00 0x1.01bc4f9acebb2p+00 0x1.f9dbde2530972p-01 0x1.1daa5f9065cccp-01 0x1.1f707b844e05bp-01 0x1.2594979b82c19p-01 0x1.2b9ec4ce6e3f6p-01 0x1.30b55537f9defp-01 0x1.30b55537f9defp-01",
	"MLP_Transformer/ranks=1": "0x1.249ec43ea139p+00 0x1.1e15ee52e0cd3p+00 0x1.1bf2b8f7988cp+00 0x1.17c476ae792a8p+00 0x1.15800d8aa9e29p+00 0x1.16e510ab00547p+00 0x1.12555056fe80fp+00 0x1.0e9d416eca6b2p+00 0x1.0b8facf4c3112p+00 0x1.0903f070462f4p+00 0x1.0903f070462f4p+00",
	"MLP_Transformer/ranks=2": "0x1.249ec43ea138ap+00 0x1.1e15ee52e0cd2p+00 0x1.1bf2b8f7988bcp+00 0x1.17c476ae792aap+00 0x1.15800d8aa9e2dp+00 0x1.16e510ab00547p+00 0x1.12555056fe80fp+00 0x1.0e9d416eca6b2p+00 0x1.0b8facf4c3112p+00 0x1.0903f070462f5p+00 0x1.0903f070462f5p+00",
	"CNN_Transformer/ranks=1": "0x1.01254d21e2756p+00 0x1.00c03faf83c6ep+00 0x1.00921437eb244p+00 0x1.00645dcd3c5fdp+00 0x1.ff96e045a605bp-01 0x1.22bffabf027cap+00 0x1.22cd71fb217aap+00 0x1.22e5c9455dca8p+00 0x1.22f5d1292840cp+00 0x1.2305575f6d63ap+00 0x1.2305575f6d63ap+00",
	"CNN_Transformer/ranks=2": "0x1.01254d21e275p+00 0x1.00c03faf83c6fp+00 0x1.00921437eb252p+00 0x1.00645dcd3c5f8p+00 0x1.ff96e045a6074p-01 0x1.22bffabf027cap+00 0x1.22cd71fb217aap+00 0x1.22e5c9455dca8p+00 0x1.22f5d1292840cp+00 0x1.2305575f6d63ap+00 0x1.2305575f6d63ap+00",
	"MATEY/ranks=1":           "0x1.0134d6b7edb32p+00 0x1.00b9f315aad54p+00 0x1.0076fef9f42c6p+00 0x1.003ecae54e7afp+00 0x1.ff227ffd8a1a8p-01 0x1.2496c4bbb835ep+00 0x1.249bdaf031d58p+00 0x1.2495b1f1e3391p+00 0x1.248e832ce9c74p+00 0x1.24892227673a8p+00 0x1.24892227673a8p+00",
	"MATEY/ranks=2":           "0x1.0134d6b7edb4p+00 0x1.00b9f315aad58p+00 0x1.0076fef9f42cp+00 0x1.003ecae54e7b6p+00 0x1.ff227ffd8a1aap-01 0x1.2496c4bbb835ep+00 0x1.249bdaf031d58p+00 0x1.2495b1f1e3391p+00 0x1.248e832ce9c73p+00 0x1.24892227673a8p+00 0x1.24892227673a8p+00",
}

// TestGoldenLosses trains every architecture for five epochs on 16 fixed
// examples — 15 after the 90:10 split, so each epoch is a batch of 8 and a
// ragged batch of 7, and with the one-example evaluation in between every
// workspace slot shrinks and regrows all the time — and demands the
// parent commit's losses bit for bit, single-rank and data-parallel.
func TestGoldenLosses(t *testing.T) {
	for _, arch := range goldenArchs {
		for _, ranks := range []int{1, 2} {
			key := fmt.Sprintf("%s/ranks=%d", arch.name, ranks)
			t.Run(key, func(t *testing.T) {
				_, hist, err := Train(context.Background(), arch.factory,
					goldenExamples(16, arch.in, arch.target),
					Config{Epochs: 5, Batch: 8, Seed: 7, Ranks: ranks})
				if err != nil {
					t.Fatal(err)
				}
				losses := append(append(append([]float64{}, hist.TrainLoss...), hist.TestLoss...), hist.FinalLoss)
				hex := make([]string, len(losses))
				for i, v := range losses {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("loss %d is %v", i, v)
					}
					hex[i] = strconv.FormatFloat(v, 'x', -1, 64)
				}
				if got := strings.Join(hex, " "); got != goldenLosses[key] {
					t.Errorf("losses moved\n got %s\nwant %s", got, goldenLosses[key])
				}
			})
		}
	}
}
