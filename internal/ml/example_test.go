package ml_test

import (
	"fmt"

	"glider/internal/ml"
)

// The hinge SVM over the k-sparse unordered feature (every history PC at
// Pos 0) is the offline ISVM, Glider's model: it separates contexts the PC
// alone cannot.
func ExampleHingeSVM() {
	m := ml.NewHingeSVM(10)
	anchor := []ml.Feature{{PC: 0x44e141}}
	other := []ml.Feature{{PC: 0x44e999}}
	for i := 0; i < 50; i++ {
		m.Train(0x44c7f6, anchor, true) // anchor present → cache
		m.Train(0x44c7f6, other, false)
	}
	fmt.Println(m.Predict(0x44c7f6, anchor))
	fmt.Println(m.Predict(0x44c7f6, other))
	// Output:
	// true
	// false
}

// The attention LSTM labels every element of an access sequence; the first
// half of each sequence is warmup context (§4.1).
func ExampleAttentionLSTM() {
	cfg := ml.AttentionLSTMConfig{Vocab: 4, Embed: 8, Hidden: 8, LR: 0.02, ClipNorm: 5, Seed: 1}
	m, err := ml.NewAttentionLSTM(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Token 3 is always cache-friendly, others averse.
	tokens := []int{0, 1, 3, 2, 0, 3, 1, 3}
	labels := []bool{false, false, true, false, false, true, false, true}
	for i := 0; i < 60; i++ {
		m.TrainSequence(tokens, labels, 4)
	}
	pred := m.Predict(tokens, 4)
	fmt.Println("predictions for second half:", pred)
	// Output:
	// predictions for second half: [false true false true]
}
