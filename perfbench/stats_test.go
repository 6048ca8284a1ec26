package main

import (
	"math/rand"
	"testing"
)

func TestQuantileKnownSamples(t *testing.T) {
	var xs []float64
	for i := 1000; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := sortedCopy(xs)
	if got := quantile(s, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := quantile(s, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestQuantileP99NotBelowP50(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(3000))
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		s := sortedCopy(xs)
		if p50, p99 := quantile(s, 0.5), quantile(s, 0.99); p99 < p50 {
			t.Fatalf("%d samples: p99 %v < p50 %v", len(xs), p99, p50)
		}
	}
}

// A round of two cheap and two expensive operations: the median of the
// per-position medians lies between the two groups' typical values,
// not at either group's extreme sample.
func TestRoundMedian(t *testing.T) {
	samples := []float64{1, 2, 10, 20, 1.2, 2.2, 11, 21, 0.8, 1.8, 9, 19}
	got := roundMedian(4, samples)
	if got != (2+10)/2.0 {
		t.Errorf("roundMedian = %v, want 6", got)
	}
}
