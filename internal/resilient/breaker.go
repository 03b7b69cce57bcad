package resilient

import (
	"sync"
	"time"

	"metricprox/internal/obs"
)

// Breaker is a three-state circuit breaker: FailureThreshold consecutive
// failures open it, an open breaker fast-fails every caller until the
// cooldown elapses, and exactly one half-open probe is admitted per
// cooldown — its outcome closes the breaker or re-opens it for another
// cooldown.
//
// Oracle admits every distance attempt through one; the HTTP request
// loop of internal/proxclient uses another, so the service client fails
// fast during a daemon outage instead of hammering a dead endpoint with
// retries.
//
// A Breaker is safe for concurrent use.
type Breaker struct {
	mu          sync.Mutex
	threshold   int // consecutive failures that open the breaker; < 0 disables
	cooldown    time.Duration
	now         func() time.Time
	state       BreakerState
	consecutive int
	reopenAt    time.Time
	probing     bool
	opens       obs.Counter

	// gauge, once Oracle.Observe attaches a registry, holds the stored
	// state after every Allow and Record.
	gauge *obs.Gauge
}

// NewBreaker returns a breaker following the Policy defaults: threshold 0
// means the default of 5 consecutive failures, a negative threshold
// disables the breaker (Allow always admits), and cooldown 0 means the
// default 100ms.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	p := Policy{FailureThreshold: threshold, Cooldown: cooldown}.Normalize()
	return &Breaker{threshold: p.FailureThreshold, cooldown: p.Cooldown, now: time.Now}
}

// Allow reports whether an attempt may proceed. While the breaker is open
// and cooling down it returns false without any state change; once the
// cooldown has elapsed it admits exactly one half-open probe and
// fast-fails everyone else until that probe's outcome is recorded. Every
// admitted attempt must be followed by exactly one Record call.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.publish()
	if b.threshold < 0 {
		return true
	}
	switch b.state {
	case BreakerOpen:
		if b.now().Before(b.reopenAt) {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// Record feeds one attempt outcome into the state machine: success closes
// the breaker and clears the failure streak; a failed half-open probe
// re-opens it immediately; a failure streak reaching the threshold opens
// it for a cooldown.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.publish()
	if b.threshold < 0 {
		return
	}
	switch {
	case ok:
		b.state = BreakerClosed
		b.consecutive = 0
		b.probing = false
	case b.state == BreakerHalfOpen:
		b.state = BreakerOpen
		b.probing = false
		b.reopenAt = b.now().Add(b.cooldown)
		b.opens.Inc()
	default:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.state = BreakerOpen
			b.consecutive = 0
			b.reopenAt = b.now().Add(b.cooldown)
			b.opens.Inc()
		}
	}
}

// publish sets the state gauge, if one is attached. Called with mu held,
// so the gauge follows the transitions in order.
func (b *Breaker) publish() {
	if b.gauge != nil {
		b.gauge.Set(float64(b.state))
	}
}

// State returns the breaker state, reporting half-open once an open
// breaker's cooldown has elapsed.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && !b.now().Before(b.reopenAt) {
		return BreakerHalfOpen
	}
	return b.state
}

// Opens returns the number of closed/half-open → open transitions.
func (b *Breaker) Opens() int64 { return b.opens.Value() }
