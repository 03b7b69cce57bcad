package resilient

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"metricprox/internal/metric"
)

// Typed failures surfaced by the policy layer.
var (
	// ErrBreakerOpen is returned without touching the backend while the
	// circuit breaker is open (fast-fail).
	ErrBreakerOpen = errors.New("resilient: circuit breaker open")
	// ErrExhausted is returned when the per-call attempt budget ran out;
	// it wraps the last attempt's error.
	ErrExhausted = errors.New("resilient: attempt budget exhausted")
)

// Policy tunes the retry/backoff/breaker behaviour. The zero value is
// usable: Normalize fills in the documented defaults.
type Policy struct {
	// MaxAttempts is the total attempt budget per DistanceCtx call
	// (default 4; minimum 1).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 32 × BaseDelay).
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// JitterFrac is the fraction of each delay randomised by the
	// deterministic jitter, in [0, 1]: a delay d becomes
	// d × (1 − JitterFrac + JitterFrac·u) with u uniform in [0, 1)
	// (default 0.5).
	JitterFrac float64
	// PerCallTimeout bounds each individual attempt with a child context
	// deadline (default none).
	PerCallTimeout time.Duration
	// FailureThreshold is the number of consecutive failures that opens
	// the breaker (default 5; 0 keeps the default, negative disables the
	// breaker).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 100ms).
	Cooldown time.Duration
	// Seed drives the deterministic jitter.
	Seed int64
}

// Normalize returns p with defaults filled in.
func (p Policy) Normalize() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 32 * p.BaseDelay
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	} else if p.JitterFrac == 0 {
		p.JitterFrac = 0.5
	} else if p.JitterFrac > 1 {
		p.JitterFrac = 1
	}
	if p.FailureThreshold == 0 {
		p.FailureThreshold = 5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 100 * time.Millisecond
	}
	return p
}

// RetryOnlyPolicy returns a policy tuned for in-process fault injection,
// as used by the -faults flag of cmd/metricprox and cmd/proxbench:
// microsecond-scale backoff (the injected faults cost nothing to retry,
// so real delays would only distort benchmark timings), a disabled
// breaker, and an attempt budget that outlasts the per-pair failure cap
// of faultmetric.ParseSpec — together guaranteeing every resolution
// eventually succeeds and the fault-free output is preserved.
func RetryOnlyPolicy(seed int64) Policy {
	return Policy{
		MaxAttempts:      5, // > faultmetric.SpecMaxFailuresPerPair
		BaseDelay:        time.Microsecond,
		MaxDelay:         32 * time.Microsecond,
		FailureThreshold: -1,
		Seed:             seed,
	}
}

// Backoff returns the deterministic pre-attempt delay before attempt
// (attempt 1 is the first try, so the first nonzero delay precedes attempt
// 2). The exponential curve is capped at MaxDelay before jitter, and the
// jitter is a pure function of (Seed, pair, attempt): equal inputs yield
// equal delays, the property the fuzz target checks.
func (p Policy) Backoff(i, j, attempt int) time.Duration {
	if attempt <= 1 {
		return 0
	}
	d := float64(p.BaseDelay)
	for a := 2; a < attempt; a++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	u := float64(jitterHash(p.Seed, pairKey(i, j), int64(attempt))>>11) / float64(1<<53)
	d *= 1 - p.JitterFrac + p.JitterFrac*u
	return time.Duration(d)
}

// Counters aggregates the policy layer's accounting. The session layer
// surfaces Retries, Timeouts, and BreakerOpens through core.Stats.
type Counters struct {
	Attempts     int64 // attempts forwarded to the backend
	Successes    int64 // calls that returned a valid distance
	Retries      int64 // failed attempts that were retried
	Timeouts     int64 // attempts that hit a context deadline
	Corrupts     int64 // NaN/negative responses rejected (and retried)
	BreakerOpens int64 // closed/half-open → open transitions
	FastFails    int64 // calls rejected without a backend attempt (open breaker)
	Exhausted    int64 // calls that ran out of attempt budget
}

// BreakerState is the circuit breaker's observable state.
type BreakerState int

// The three breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the conventional lowercase state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("breakerstate(%d)", int(s))
	}
}

// Oracle wraps a fallible backend with the policy. It is safe for
// concurrent use; the mutex guards only breaker state and counters and is
// never held across a backend round-trip or a backoff sleep.
type Oracle struct {
	base  metric.FallibleOracle
	p     Policy
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error

	mu          sync.Mutex
	state       BreakerState
	consecutive int       // consecutive failures while closed
	reopenAt    time.Time // when an open breaker admits a probe
	probing     bool      // a half-open probe is in flight
	counts      Counters

	// ins, once Observe attaches a registry, mirrors every counting event
	// into obs instruments. Atomic so the unlocked latency-timing path in
	// DistanceCtx can read it without the mutex.
	ins atomic.Pointer[instruments]
}

// New wraps base with the (normalised) policy.
func New(base metric.FallibleOracle, p Policy) *Oracle {
	return &Oracle{
		base:  base,
		p:     p.Normalize(),
		now:   time.Now,
		sleep: metric.SleepCtx,
	}
}

// Len returns the backend universe size.
func (o *Oracle) Len() int { return o.base.Len() }

// Counters snapshots the policy accounting.
func (o *Oracle) Counters() Counters {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counts
}

// PolicyCounters reports the counters the session layer mirrors into
// core.Stats (retries, timeouts, breaker opens). The method name is the
// contract: core looks it up by interface assertion.
func (o *Oracle) PolicyCounters() (retries, timeouts, breakerOpens int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counts.Retries, o.counts.Timeouts, o.counts.BreakerOpens
}

// State returns the breaker state, accounting for cooldown expiry.
func (o *Oracle) State() BreakerState {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.state == BreakerOpen && !o.now().Before(o.reopenAt) {
		return BreakerHalfOpen
	}
	return o.state
}

// Ready reports whether the oracle will currently attempt backend calls —
// false only while the breaker is open and cooling down. The session
// layer uses it to account degraded (bounds-only) answers.
func (o *Oracle) Ready() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.state != BreakerOpen || !o.now().Before(o.reopenAt)
}

// allow asks the breaker for permission to attempt. Called with the
// mutex held via attemptBegin.
func (o *Oracle) attemptBegin() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	ins := o.ins.Load()
	if ins != nil {
		// Runs before the unlock (LIFO), capturing any state transition.
		defer func() { ins.breakerState.Set(float64(o.state)) }()
	}
	if o.p.FailureThreshold < 0 {
		o.countAttempt(ins)
		return true
	}
	switch o.state {
	case BreakerOpen:
		if o.now().Before(o.reopenAt) {
			o.counts.FastFails++
			if ins != nil {
				ins.fastFails.Inc()
			}
			return false
		}
		// Cooldown over: admit exactly one half-open probe.
		o.state = BreakerHalfOpen
		o.probing = true
		o.countAttempt(ins)
		return true
	case BreakerHalfOpen:
		if o.probing {
			o.counts.FastFails++
			if ins != nil {
				ins.fastFails.Inc()
			}
			return false
		}
		o.probing = true
		o.countAttempt(ins)
		return true
	default:
		o.countAttempt(ins)
		return true
	}
}

// countAttempt records one admitted attempt; ins may be nil (unobserved).
// Called with the mutex held.
func (o *Oracle) countAttempt(ins *instruments) {
	o.counts.Attempts++
	if ins != nil {
		ins.attempts.Inc()
	}
}

// attemptEnd records an attempt outcome into the breaker.
func (o *Oracle) attemptEnd(ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ins := o.ins.Load()
	if ins != nil {
		defer func() { ins.breakerState.Set(float64(o.state)) }()
	}
	if o.p.FailureThreshold < 0 {
		return
	}
	switch {
	case ok:
		o.state = BreakerClosed
		o.consecutive = 0
		o.probing = false
	case o.state == BreakerHalfOpen:
		// The probe failed: straight back to open for another cooldown.
		o.state = BreakerOpen
		o.probing = false
		o.reopenAt = o.now().Add(o.p.Cooldown)
		o.counts.BreakerOpens++
		if ins != nil {
			ins.breakerOpens.Inc()
		}
	default:
		o.consecutive++
		if o.consecutive >= o.p.FailureThreshold {
			o.state = BreakerOpen
			o.consecutive = 0
			o.reopenAt = o.now().Add(o.p.Cooldown)
			o.counts.BreakerOpens++
			if ins != nil {
				ins.breakerOpens.Inc()
			}
		}
	}
}

// DistanceCtx resolves one distance under the full policy: breaker
// admission, per-attempt deadline, corrupt-value rejection, deterministic
// backoff between attempts, and the total attempt budget.
func (o *Oracle) DistanceCtx(ctx context.Context, i, j int) (float64, error) {
	var lastErr error
	for attempt := 1; attempt <= o.p.MaxAttempts; attempt++ {
		ins := o.ins.Load()
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if delay := o.p.Backoff(i, j, attempt); delay > 0 {
			if deadline, ok := ctx.Deadline(); ok && o.now().Add(delay).After(deadline) {
				// The backoff cannot complete before the deadline; give up
				// now instead of sleeping into certain failure.
				o.mu.Lock()
				o.counts.Timeouts++
				o.mu.Unlock()
				if ins != nil {
					ins.timeouts.Inc()
				}
				return 0, fmt.Errorf("%w: backoff exceeds deadline: %w", ErrExhausted, context.DeadlineExceeded)
			}
			if err := o.sleep(ctx, delay); err != nil {
				return 0, err
			}
		}
		if !o.attemptBegin() {
			return 0, fmt.Errorf("%w (cooling down)", ErrBreakerOpen)
		}
		var t0 time.Time
		if ins != nil {
			t0 = o.now()
		}
		d, err := o.callOnce(ctx, i, j)
		if ins != nil {
			ins.attemptLatency.Observe(int64(o.now().Sub(t0)))
		}
		if err == nil {
			if verr := metric.ValidateDistance(d, i, j); verr != nil {
				err = verr
				o.mu.Lock()
				o.counts.Corrupts++
				o.mu.Unlock()
				if ins != nil {
					ins.corrupts.Inc()
				}
			}
		}
		if err == nil {
			o.attemptEnd(true)
			o.mu.Lock()
			o.counts.Successes++
			o.mu.Unlock()
			if ins != nil {
				ins.successes.Inc()
			}
			return d, nil
		}
		o.attemptEnd(false)
		o.mu.Lock()
		if errors.Is(err, context.DeadlineExceeded) {
			o.counts.Timeouts++
			if ins != nil {
				ins.timeouts.Inc()
			}
		}
		if attempt < o.p.MaxAttempts {
			o.counts.Retries++
			if ins != nil {
				ins.retries.Inc()
			}
		} else {
			o.counts.Exhausted++
			if ins != nil {
				ins.exhausted.Inc()
			}
		}
		o.mu.Unlock()
		lastErr = err
		// The parent context dying is terminal regardless of budget.
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
	}
	return 0, fmt.Errorf("%w after %d attempts: %w", ErrExhausted, o.p.MaxAttempts, lastErr)
}

// callOnce performs one backend attempt under the per-attempt deadline.
func (o *Oracle) callOnce(ctx context.Context, i, j int) (float64, error) {
	if o.p.PerCallTimeout > 0 {
		actx, cancel := context.WithTimeout(ctx, o.p.PerCallTimeout)
		defer cancel()
		return o.base.DistanceCtx(actx, i, j)
	}
	return o.base.DistanceCtx(ctx, i, j)
}

// pairKey normalises an unordered pair into one int64.
func pairKey(i, j int) int64 {
	if i > j {
		i, j = j, i
	}
	return int64(i)<<32 | int64(uint32(j))
}

// jitterHash mixes the jitter coordinates (splitmix64 finaliser).
func jitterHash(seed, key, attempt int64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(key)*0xbf58476d1ce4e5b9 ^
		uint64(attempt)*0x94d049bb133111eb ^ 0xa0761d6478bd642f
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

var _ metric.FallibleOracle = (*Oracle)(nil)
