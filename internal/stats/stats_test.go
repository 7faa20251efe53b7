package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Max(xs) != 7 {
		t.Fatal("max wrong")
	}
	if Max(nil) != 0 {
		t.Fatal("empty max")
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	got := CDF(xs, []float64{0, 2, 4})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CDF = %v, want %v", got, want)
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		probes := []float64{-1e9, -1, 0, 1, 1e9}
		cdf := CDF(xs, probes)
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1] {
				return false
			}
		}
		return cdf[len(cdf)-1] <= 1 && cdf[0] >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(xs, 50) != 3 {
		t.Fatalf("p50 = %v", Percentile(xs, 50))
	}
	if Percentile(xs, 100) != 5 || Percentile(xs, 0) != 1 {
		t.Fatal("percentile extremes wrong")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestHeatRune(t *testing.T) {
	if HeatRune(0) != ' ' || HeatRune(1) != '@' {
		t.Fatal("heat rune extremes")
	}
	if HeatRune(-5) != ' ' || HeatRune(5) != '@' {
		t.Fatal("heat rune clamp")
	}
}
