package eisvc

import (
	"errors"
	"math/rand"
	"os"
	"strconv"
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
// The zero value is not useful; use DefaultRetryPolicy (or
// RetryPolicyFromEnv) and adjust fields.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4; values < 1 behave as 1 — no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps every delay, including honored Retry-After values
	// (default 2s).
	MaxDelay time.Duration
	// Retryable, when non-nil, overrides the default error classifier
	// (shed 429/503 answers and transport errors retry; everything else
	// is permanent).
	Retryable func(error) bool

	mu  sync.Mutex
	rng *rand.Rand
}

// DefaultRetryPolicy returns the standard policy: 4 attempts, 50ms base,
// 2s cap, full jitter.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// Env knobs read by RetryPolicyFromEnv; see docs/EID.md.
const (
	EnvRetryAttempts = "EISVC_RETRY_ATTEMPTS" // total attempts (int)
	EnvRetryBase     = "EISVC_RETRY_BASE"     // base delay (Go duration)
	EnvRetryMaxDelay = "EISVC_RETRY_MAX_DELAY"
	EnvHedgeAfter    = "EISVC_HEDGE_AFTER" // Client.Hedge (Go duration)
)

// RetryPolicyFromEnv builds DefaultRetryPolicy overridden by the
// EISVC_RETRY_* environment knobs; malformed values keep the default.
// EISVC_RETRY_ATTEMPTS=1 disables retries entirely.
func RetryPolicyFromEnv() *RetryPolicy {
	p := DefaultRetryPolicy()
	if v := os.Getenv(EnvRetryAttempts); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 {
			p.MaxAttempts = n
		}
	}
	if d := envDuration(EnvRetryBase); d > 0 {
		p.BaseDelay = d
	}
	if d := envDuration(EnvRetryMaxDelay); d > 0 {
		p.MaxDelay = d
	}
	return p
}

// HedgeFromEnv returns the EISVC_HEDGE_AFTER duration, or 0 (hedging off)
// when unset or malformed.
func HedgeFromEnv() time.Duration { return envDuration(EnvHedgeAfter) }

// envDuration reads a positive Go duration from the environment; unset,
// malformed and non-positive values are all 0.
func envDuration(name string) time.Duration {
	if d, err := time.ParseDuration(os.Getenv(name)); err == nil && d > 0 {
		return d
	}
	return 0
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

// shouldRetry classifies an attempt's failure. The default: a shed answer
// (429 queue full / 503 deadline or draining) retries, any other daemon
// answer is permanent, and everything else — connection resets, injected
// faults, per-attempt timeouts — is a transport error and retries.
func (p *RetryPolicy) shouldRetry(err error) bool {
	if p.Retryable != nil {
		return p.Retryable(err)
	}
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
