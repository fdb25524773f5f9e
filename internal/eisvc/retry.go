package eisvc

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy drives the client's retry loop for idempotent requests
// (evaluations and reads; registrations and rebinds are never retried).
// Delays follow exponential backoff with full jitter — attempt k sleeps a
// uniform draw from [0, min(MaxDelay, BaseDelay*2^(k-1))] — which spreads
// synchronized retry storms instead of re-converging them. A Retry-After
// carried by a 429/503 answer raises the floor of the next delay (capped
// at MaxDelay), so an explicitly backpressuring server is honored.
//
// The zero value is not useful; use DefaultRetryPolicy and adjust fields.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4; values < 1 behave as 1 — no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps every delay, including honored Retry-After values
	// (default 2s).
	MaxDelay time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// DefaultRetryPolicy returns the standard policy: 4 attempts, 50ms base,
// 2s cap, full jitter.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// Seed makes the policy's jitter deterministic, for tests and experiments.
func (p *RetryPolicy) Seed(seed int64) *RetryPolicy {
	p.mu.Lock()
	p.rng = rand.New(rand.NewSource(seed))
	p.mu.Unlock()
	return p
}

func (p *RetryPolicy) attempts() int {
	if p == nil || p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// shouldRetry classifies an attempt's failure: a shed answer (429 queue
// full / 503 deadline or draining) retries, any other daemon answer is
// permanent, and everything else — connection resets, injected faults,
// per-attempt timeouts — is a transport error and retries.
func shouldRetry(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Shed()
	}
	return true
}

// delay computes the sleep before retry number `retry` (1-based: the delay
// after the first failure is retry 1). retryAfter, when positive, is the
// server's Retry-After hint and raises the floor.
func (p *RetryPolicy) delay(retry int, retryAfter time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	ceil := base << uint(retry-1)
	if ceil > maxd || ceil <= 0 {
		ceil = maxd
	}
	d := time.Duration(p.float64() * float64(ceil))
	if retryAfter > 0 && d < retryAfter {
		d = retryAfter
	}
	if d > maxd {
		d = maxd
	}
	return d
}

func (p *RetryPolicy) float64() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return p.rng.Float64()
}
