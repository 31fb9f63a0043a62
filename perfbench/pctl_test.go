package main

import (
	"math"
	"testing"
)

func fill(n int) *sample {
	s := &sample{}
	for i := n; i >= 1; i-- { // reverse order: percentile must sort
		s.add(float64(i))
	}
	return s
}

func TestMedian(t *testing.T) {
	if got := fill(5).median(); got != 3 {
		t.Fatalf("median of 1..5 = %v, want 3", got)
	}
	if got := fill(4).median(); got != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
	if got := (&sample{}).median(); !math.IsNaN(got) {
		t.Fatalf("median of empty sample = %v, want NaN", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want bool
	}{
		{90, 100, true}, {90, 99, false},
		{95, 200, true}, {95, 199, false},
		{99, 1000, true}, {99, 999, false},
		{50, 20, true}, {50, 19, false},
		{90, 0, false},
	}
	for _, c := range cases {
		if got := supports(c.p, c.n); got != c.want {
			t.Errorf("supports(p%v, n=%d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	if v, ok := fill(100).percentile(90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := fill(99).percentile(90); ok || !math.IsNaN(v) {
		t.Fatalf("p90 of 99 samples = %v, %v; want NaN, false", v, ok)
	}
}

func TestTailPicksHighestSupported(t *testing.T) {
	cases := []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{10000, 99.9, true}, {1000, 99, true}, {500, 95, true}, {150, 90, true}, {50, 0, false},
	}
	for _, c := range cases {
		p, v, ok := fill(c.n).tail()
		if ok != c.ok || p != c.wantP {
			t.Errorf("tail(n=%d) = p%v (%v), ok=%v; want p%v, ok=%v", c.n, p, v, ok, c.wantP, c.ok)
		}
		if ok && c.n-int(v) < minBeyond {
			t.Errorf("tail(n=%d) = %v leaves %d samples beyond", c.n, v, c.n-int(v))
		}
	}
}
