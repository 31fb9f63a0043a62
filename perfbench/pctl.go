package main

import (
	"math"
	"sort"
)

// sample collects one timing (or size) per operation. Percentiles follow
// the rule the benchmark reports by: a median, plus the highest percentile
// that still has at least minBeyond samples above it.
type sample struct {
	vals   []float64
	sorted bool
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

func (s *sample) add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

func (s *sample) n() int { return len(s.vals) }

func (s *sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// median is the middle value (the mean of the two middle values for an
// even count); NaN for an empty sample.
func (s *sample) median() float64 {
	n := len(s.vals)
	if n == 0 {
		return math.NaN()
	}
	s.sort()
	if n%2 == 1 {
		return s.vals[n/2]
	}
	return (s.vals[n/2-1] + s.vals[n/2]) / 2
}

// rankIndex is the nearest-rank index of percentile p in n sorted values.
// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002) from
// pushing an exact rank up by one.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// supports reports whether percentile p has at least minBeyond samples
// strictly above its nearest rank.
func supports(p float64, n int) bool {
	if n == 0 {
		return false
	}
	return n-1-rankIndex(p, n) >= minBeyond
}

// percentile returns the nearest-rank percentile p and whether the sample
// is large enough to report it.
func (s *sample) percentile(p float64) (float64, bool) {
	n := len(s.vals)
	if !supports(p, n) {
		return math.NaN(), false
	}
	s.sort()
	return s.vals[rankIndex(p, n)], true
}

// tail returns the highest candidate percentile the sample supports and
// its value; ok is false when only the median can be reported.
func (s *sample) tail() (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if v, ok := s.percentile(p); ok {
			return p, v, true
		}
	}
	return 0, math.NaN(), false
}

func (s *sample) mean() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}
