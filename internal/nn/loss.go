package nn

import (
	"fmt"
	"math"
)

// softmaxInto writes the softmax of logits into dst and returns it,
// computed stably by subtracting the max logit.
func softmaxInto(dst, logits []float64) []float64 {
	maxL := math.Inf(-1)
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for i, l := range logits {
		e := math.Exp(l - maxL)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// Argmax returns the index of the largest element (ties: lowest index).
func Argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// CrossEntropyLoss returns the softmax-cross-entropy loss of one sample
// and writes its gradient with respect to the logits into dLogits, which
// has the logits' length.
func CrossEntropyLoss(logits []float64, label int, dLogits []float64) float64 {
	if label < 0 || label >= len(logits) {
		panic(fmt.Sprintf("nn: label %d out of range for %d classes", label, len(logits)))
	}
	p := softmaxInto(dLogits, logits)
	loss := -math.Log(math.Max(p[label], 1e-15))
	p[label] -= 1
	return loss
}

// MSELoss returns the mean-squared-error loss of one sample and writes its
// gradient with respect to the prediction into dPred, which has the
// prediction's length.
func MSELoss(pred, target, dPred []float64) float64 {
	if len(pred) != len(target) {
		panic(fmt.Sprintf("nn: MSE with |pred|=%d |target|=%d", len(pred), len(target)))
	}
	var loss float64
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d
		dPred[i] = 2 * d / float64(len(pred))
	}
	return loss / float64(len(pred))
}

// Accuracy returns the fraction of samples whose argmax prediction
// matches the label.
func Accuracy(preds []int, labels []int) float64 {
	if len(preds) == 0 {
		return 0
	}
	hit := 0
	for i, p := range preds {
		if p == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(preds))
}

// MAPE returns the mean absolute percentage error of predictions against
// targets, in percent. Targets with magnitude below eps are skipped to
// avoid division blow-ups; if all are skipped MAPE is 0.
func MAPE(preds, targets []float64) float64 {
	const eps = 1e-9
	var sum float64
	n := 0
	for i, t := range targets {
		if math.Abs(t) < eps {
			continue
		}
		sum += math.Abs((preds[i] - t) / t)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 100
}
