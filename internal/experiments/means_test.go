package experiments

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := mean(nil); got != 0 {
		t.Fatalf("mean(nil) = %g, want 0", got)
	}
	if got := mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("mean = %g, want 2.5", got)
	}
}

func TestGeoMean(t *testing.T) {
	if _, err := geoMean(nil); err == nil {
		t.Fatal("geoMean(nil) must error")
	}
	if _, err := geoMean([]float64{1, 0, 2}); err == nil {
		t.Fatal("geoMean with zero must error")
	}
	g, err := geoMean([]float64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-4) > 1e-12 {
		t.Fatalf("geoMean(2,8) = %g, want 4", g)
	}
}

func TestGeoMeanLeqMeanProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, r := range raw {
			v[i] = float64(r)/1000 + 0.001
		}
		g, err := geoMean(v)
		if err != nil {
			return false
		}
		return g <= mean(v)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}
