package experiments

import (
	"fmt"
	"math"
)

// mean returns the arithmetic mean (0 for empty input).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// geoMean returns the geometric mean of strictly positive values. It
// returns an error if any value is non-positive.
func geoMean(v []float64) (float64, error) {
	if len(v) == 0 {
		return 0, fmt.Errorf("experiments: geomean of empty slice")
	}
	var logSum float64
	for i, x := range v {
		if x <= 0 {
			return 0, fmt.Errorf("experiments: geomean requires positive values, got %g at %d", x, i)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(v))), nil
}
