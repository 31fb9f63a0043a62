package simclock

import "sync"

// Jitter is a mutex-guarded xorshift64 generator for retry-backoff
// jitter. Deterministic seeding keeps virtual-time runs reproducible;
// jitter only needs to decorrelate retries, not to be unpredictable.
type Jitter struct {
	mu    sync.Mutex
	state uint64
}

// NewJitter returns a generator seeded with seed; 0 picks a fixed
// non-zero seed, since xorshift never leaves the all-zero state.
func NewJitter(seed uint64) *Jitter {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Jitter{state: seed}
}

// Unit returns a float in [0, 1).
func (r *Jitter) Unit() float64 {
	r.mu.Lock()
	x := r.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.state = x
	r.mu.Unlock()
	return float64(x>>11) / (1 << 53)
}
