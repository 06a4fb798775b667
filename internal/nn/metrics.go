package nn

import (
	"fmt"
	"strings"

	"extrapdnn/internal/mat"
)

// ConfusionMatrix counts classifications: Counts[t][p] is the number of
// samples of true class t predicted as class p.
type ConfusionMatrix struct {
	Counts [][]int
}

// Confusion computes the confusion matrix of the network on a labeled
// dataset.
func (n *Network) Confusion(x *mat.Matrix, labels []int) ConfusionMatrix {
	k := n.OutputSize()
	cm := ConfusionMatrix{Counts: make([][]int, k)}
	for t := range cm.Counts {
		cm.Counts[t] = make([]int, k)
	}
	if x.Rows() == 0 {
		return cm
	}
	out := newForwarder(n.Layers, x.Rows()).run(x, false)
	for r := 0; r < out.Rows(); r++ {
		row := out.Row(r)
		best := 0
		for c, p := range row {
			if p > row[best] {
				best = c
			}
		}
		cm.Counts[labels[r]][best]++
	}
	return cm
}

// Accuracy returns the overall fraction of correct predictions.
func (cm ConfusionMatrix) Accuracy() float64 {
	total, correct := 0, 0
	for t, row := range cm.Counts {
		for p, c := range row {
			total += c
			if t == p {
				correct += c
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Recall returns the per-class recall (correct / actual); classes with no
// samples get 0.
func (cm ConfusionMatrix) Recall(class int) float64 {
	row := cm.Counts[class]
	total := 0
	for _, c := range row {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(row[class]) / float64(total)
}

// Precision returns the per-class precision (correct / predicted); classes
// never predicted get 0.
func (cm ConfusionMatrix) Precision(class int) float64 {
	total := 0
	for t := range cm.Counts {
		total += cm.Counts[t][class]
	}
	if total == 0 {
		return 0
	}
	return float64(cm.Counts[class][class]) / float64(total)
}

// MacroF1 returns the unweighted mean F1 score over classes that occur in
// the data.
func (cm ConfusionMatrix) MacroF1() float64 {
	sum, n := 0.0, 0
	for class, row := range cm.Counts {
		actual := 0
		for _, c := range row {
			actual += c
		}
		if actual == 0 {
			continue
		}
		p, r := cm.Precision(class), cm.Recall(class)
		if p+r > 0 {
			sum += 2 * p * r / (p + r)
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String renders a compact summary (not the full matrix, which is 43×43 for
// the modeler's classifier).
func (cm ConfusionMatrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "accuracy %.3f, macro-F1 %.3f", cm.Accuracy(), cm.MacroF1())
	return sb.String()
}
