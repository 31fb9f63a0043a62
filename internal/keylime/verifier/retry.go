package verifier

// Transient-fault handling: the paper's P2 finding is that Keylime converts
// any failed round — including a dropped packet — into a security verdict
// and halts polling, handing an adaptive attacker a blind window for free.
// This file separates *infrastructure faults* from *integrity failures*:
// quote fetches and registrar lookups are retried with exponential backoff,
// jitter and per-request timeouts (all on the verifier's Clock, so tests
// run on virtual time), and only a persistent run of faults escalates to a
// FailureComms record.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/simclock"
)

// RetryPolicy tunes retries of quote fetches and registrar lookups.
type RetryPolicy struct {
	// MaxAttempts per fetch, including the first (default 3).
	MaxAttempts int
	// InitialBackoff before the first retry (default 200ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 5s).
	MaxBackoff time.Duration
	// Multiplier grows the backoff each retry (default 2).
	Multiplier float64
	// Jitter is the fraction of each backoff randomized around its
	// nominal value, in [0, 1] (default 0.2). Jitter decorrelates retry
	// storms across a fleet.
	Jitter float64
	// RequestTimeout bounds each attempt, including reading the response
	// body, measured on the verifier's Clock (default 30s). A hung agent
	// (accepted connection, no bytes) is cut off here instead of stalling
	// the round forever.
	RequestTimeout time.Duration
}

// withDefaults fills zero fields with the default policy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = 200 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.RequestTimeout <= 0 {
		p.RequestTimeout = 30 * time.Second
	}
	return p
}

// commsError is an infrastructure fault on the verifier↔agent or
// verifier↔registrar path. It is never an integrity verdict by itself.
type commsError struct {
	err       error
	retryable bool
}

func (e *commsError) Error() string { return e.err.Error() }
func (e *commsError) Unwrap() error { return e.err }

// transientErr marks an error as a retryable infrastructure fault
// (transport error, timeout, 5xx, garbled body).
func transientErr(format string, args ...any) error {
	return &commsError{err: fmt.Errorf(format, args...), retryable: true}
}

// permanentErr marks an error as an infrastructure fault that retrying the
// same request cannot fix (4xx status, malformed request). It still counts
// against the fault budget rather than producing an instant verdict.
func permanentErr(format string, args ...any) error {
	return &commsError{err: fmt.Errorf(format, args...), retryable: false}
}

// retryableComms reports whether err is a retryable infrastructure fault.
func retryableComms(err error) bool {
	var ce *commsError
	return errors.As(err, &ce) && ce.retryable
}

// jittered spreads d over [d*(1-j/2), d*(1+j/2)).
func (v *Verifier) jittered(d time.Duration) time.Duration {
	j := v.retry.Jitter
	if j <= 0 || d <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 - j/2 + j*v.jitter.Unit()))
}

// nextBackoff grows cur by the policy multiplier, capped at MaxBackoff.
func (p RetryPolicy) nextBackoff(cur time.Duration) time.Duration {
	next := time.Duration(float64(cur) * p.Multiplier)
	if next > p.MaxBackoff {
		next = p.MaxBackoff
	}
	return next
}

// virtualTimeout derives a context cancelled after d on the verifier's
// Clock. Unlike context.WithTimeout it works under a simulated clock, which
// is what lets the chaos suite time out hung requests in virtual time. The
// returned stop function must be called to release the watchdog.
//
// On the real clock the runtime timer in context.WithTimeout is equivalent
// and cheaper — no watchdog goroutine, channel or Clock timer per request —
// so production deployments take that path.
func (v *Verifier) virtualTimeout(ctx context.Context, d time.Duration) (context.Context, func()) {
	if d <= 0 {
		return ctx, func() {}
	}
	if _, real := v.clock.(simclock.Real); real {
		return context.WithTimeout(ctx, d)
	}
	cctx, cancel := context.WithCancel(ctx)
	stop := make(chan struct{})
	go func() {
		select {
		case <-v.clock.After(d):
			cancel()
		case <-stop:
		case <-cctx.Done():
		}
	}()
	var once sync.Once
	return cctx, func() {
		once.Do(func() { close(stop) })
		cancel()
	}
}

// sleepBackoff sleeps the jittered backoff on the verifier's Clock,
// returning early if ctx is cancelled.
func (v *Verifier) sleepBackoff(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-v.clock.After(v.jittered(d)):
		return nil
	}
}

// fetchWithRetry fetches a quote, retrying transient faults per the retry
// policy. It returns the evidence, the number of attempts made, and the
// last fault when every attempt failed.
func (v *Verifier) fetchWithRetry(ctx context.Context, agentURL string, offset int) (fetched, int, error) {
	backoff := v.retry.InitialBackoff
	var lastErr error
	for attempt := 1; ; attempt++ {
		f, err := v.fetchQuote(ctx, agentURL, offset)
		if err == nil {
			return f, attempt, nil
		}
		lastErr = err
		if attempt >= v.retry.MaxAttempts || !retryableComms(err) || ctx.Err() != nil {
			return fetched{}, attempt, lastErr
		}
		if err := v.sleepBackoff(ctx, backoff); err != nil {
			return fetched{}, attempt, lastErr
		}
		backoff = v.retry.nextBackoff(backoff)
	}
}
