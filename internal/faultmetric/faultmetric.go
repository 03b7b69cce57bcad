package faultmetric

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"metricprox/internal/fcmp"
	"metricprox/internal/metric"
	"metricprox/internal/obs"
)

// Typed injection errors. ErrTransient and ErrRateLimited are retryable;
// ErrOutage models a hard backend failure burst (also retryable, but
// designed to outlast small retry budgets and trip breakers).
var (
	ErrTransient   = errors.New("faultmetric: injected transient error")
	ErrRateLimited = errors.New("faultmetric: injected rate-limit rejection")
	ErrOutage      = errors.New("faultmetric: injected outage window")
)

// Config tunes the fault schedule. All rates are probabilities in [0, 1]
// evaluated independently per attempt from the deterministic hash stream.
type Config struct {
	// Seed drives every injection decision; two injectors with the same
	// seed and config inject identically on identical (pair, attempt)
	// streams.
	Seed int64

	// TransientRate is the per-attempt probability of ErrTransient.
	TransientRate float64
	// RateLimitRate is the per-attempt probability of ErrRateLimited.
	RateLimitRate float64
	// CorruptRate is the per-attempt probability of returning a corrupt
	// value (NaN or a negative distance) with a nil error.
	CorruptRate float64

	// Latency, when nonzero, is slept (context-aware) on roughly
	// LatencyRate of calls; LatencyRate 0 with Latency set means every
	// call.
	Latency     time.Duration
	LatencyRate float64

	// OutagePeriod > 0 opens an outage window every OutagePeriod calls
	// (global call index), during which OutageLen consecutive calls fail
	// with ErrOutage. OutageLen 0 with a period set means 1.
	OutagePeriod int
	OutageLen    int

	// MaxFailuresPerPair caps the number of injected failures (transient,
	// rate-limit, or corrupt) charged to any single pair; once reached,
	// further attempts on that pair succeed (outage windows excepted).
	// Setting it below the retry budget of the policy under test makes
	// completion deterministic. 0 means no cap.
	MaxFailuresPerPair int

	// NearMetricEps > 0 perturbs successful responses into a near-metric:
	// each pair's distance is deterministically lowered by up to
	// NearMetricEps/2 (never raised, never below zero), so every triangle's
	// additive violation margin is bounded by NearMetricEps (see
	// MarginBound). The perturbation is a pure function of (seed, pair) —
	// retries and re-resolutions of a pair always see the same value, so
	// memoising layers above stay coherent.
	NearMetricEps float64
	// NearMetricRatio > 1 additionally scales each perturbed distance by a
	// deterministic per-pair factor in (1/NearMetricRatio, 1], bounding the
	// multiplicative triangle violation: d(i,j) ≤ NearMetricRatio ·
	// (d(i,k)+d(k,j)) + NearMetricEps. Values ≤ 1 disable ratio
	// perturbation.
	NearMetricRatio float64
}

// MarginBound returns the guaranteed upper bound on the additive triangle
// violation margin introduced by the near-metric perturbation alone
// (ratio perturbation excluded): with only NearMetricEps set, every
// triangle of perturbed distances satisfies d(i,j) ≤ d(i,k) + d(k,j) +
// MarginBound(). A SlackPolicy with Additive ≥ this bound keeps every
// relaxed interval sound.
func (c Config) MarginBound() float64 {
	if c.NearMetricEps > 0 {
		return c.NearMetricEps
	}
	return 0
}

// Counters is the injector's ground-truth account of what it did.
type Counters struct {
	Calls      int64 // attempts that reached the injector
	Transients int64 // ErrTransient injections
	RateLimits int64 // ErrRateLimited injections
	Outages    int64 // ErrOutage injections
	Corrupts   int64 // corrupt (NaN/negative) responses
	Latencies  int64 // calls that slept the injected latency
	CtxCancels int64 // calls aborted by their context (during latency)

	// Perturbations counts successful responses whose value was changed
	// by the near-metric perturbation — the ground truth for how many
	// potentially triangle-violating distances left the injector.
	Perturbations int64
}

// Failures returns the number of attempts that returned an error.
func (c Counters) Failures() int64 { return c.Transients + c.RateLimits + c.Outages }

// BadResponses returns every attempt a resilient caller must retry:
// errored attempts plus corrupt values.
func (c Counters) BadResponses() int64 { return c.Failures() + c.Corrupts }

// Injector wraps a metric.Space as a metric.FallibleOracle with the
// configured fault schedule. It is safe for concurrent use.
type Injector struct {
	base metric.Space
	cfg  Config

	mu       sync.Mutex
	attempts map[int64]int64 // per-pair attempt index
	failed   map[int64]int64 // per-pair injected failure count

	// The counters behind Counters; Observe links each to its registry
	// series. calls is also the global call index of the outage windows,
	// so it advances under mu.
	calls, transients, rateLimits, outages, corrupts, latencies, ctxCancels, perturbations obs.Counter
}

// New wraps base with the given fault schedule.
func New(base metric.Space, cfg Config) *Injector {
	if cfg.OutagePeriod > 0 && cfg.OutageLen <= 0 {
		cfg.OutageLen = 1
	}
	return &Injector{
		base:     base,
		cfg:      cfg,
		attempts: make(map[int64]int64),
		failed:   make(map[int64]int64),
	}
}

// Len returns the base universe size.
func (f *Injector) Len() int { return f.base.Len() }

// Counters snapshots the injection counts.
func (f *Injector) Counters() Counters {
	return Counters{
		Calls:         f.calls.Value(),
		Transients:    f.transients.Value(),
		RateLimits:    f.rateLimits.Value(),
		Outages:       f.outages.Value(),
		Corrupts:      f.corrupts.Value(),
		Latencies:     f.latencies.Value(),
		CtxCancels:    f.ctxCancels.Value(),
		Perturbations: f.perturbations.Value(),
	}
}

// DistanceCtx serves one attempt: it draws the fault decision for this
// (pair, attempt) from the seeded hash stream, injects the scheduled
// misbehaviour, and otherwise answers from the wrapped space.
func (f *Injector) DistanceCtx(ctx context.Context, i, j int) (float64, error) {
	key := pairKey(i, j)

	f.mu.Lock()
	f.calls.Inc()
	call := f.calls.Value()
	attempt := f.attempts[key]
	f.attempts[key] = attempt + 1

	// Outage windows: call-indexed bursts of consecutive failures.
	if f.cfg.OutagePeriod > 0 {
		phase := (call - 1) % int64(f.cfg.OutagePeriod)
		if phase < int64(f.cfg.OutageLen) {
			f.outages.Inc()
			f.mu.Unlock()
			return 0, fmt.Errorf("%w (call %d)", ErrOutage, call)
		}
	}

	capped := f.cfg.MaxFailuresPerPair > 0 && f.failed[key] >= int64(f.cfg.MaxFailuresPerPair)
	var inject error
	corrupt := false
	if !capped {
		switch {
		case f.roll(key, attempt, rollRateLimit) < f.cfg.RateLimitRate:
			inject = fmt.Errorf("%w (pair %d,%d attempt %d)", ErrRateLimited, i, j, attempt)
			f.rateLimits.Inc()
		case f.roll(key, attempt, rollTransient) < f.cfg.TransientRate:
			inject = fmt.Errorf("%w (pair %d,%d attempt %d)", ErrTransient, i, j, attempt)
			f.transients.Inc()
		case f.roll(key, attempt, rollCorrupt) < f.cfg.CorruptRate:
			corrupt = true
			f.corrupts.Inc()
		}
		if inject != nil || corrupt {
			f.failed[key]++
		}
	}
	sleep := time.Duration(0)
	if f.cfg.Latency > 0 && (f.cfg.LatencyRate <= 0 || f.roll(key, attempt, rollLatency) < f.cfg.LatencyRate) {
		sleep = f.cfg.Latency
		f.latencies.Inc()
	}
	f.mu.Unlock()

	if sleep > 0 {
		if err := metric.SleepCtx(ctx, sleep); err != nil {
			f.ctxCancels.Inc()
			return 0, err
		}
	}
	if inject != nil {
		return 0, inject
	}
	if corrupt {
		// Alternate between the two corruption shapes deterministically.
		if hash64(f.cfg.Seed, key, attempt, rollCorruptKind)&1 == 0 {
			return math.NaN(), nil
		}
		return -1, nil
	}
	if err := ctx.Err(); err != nil {
		f.ctxCancels.Inc()
		return 0, err
	}
	d := f.base.Distance(i, j)
	if pd := f.perturb(key, d); !fcmp.ExactEq(pd, d) {
		f.perturbations.Inc()
		return pd, nil
	}
	return d, nil
}

// perturb applies the near-metric perturbation to one successful
// response. Distances only ever shrink: lowering d(i,j) can only violate
// triangles in which (i,j) is a leg, and each leg shrinks by at most
// NearMetricEps/2, so the additive margin of any triangle is bounded by
// NearMetricEps — the guarantee MarginBound advertises and the chaos
// harness's slack-preservation theorem relies on. (Raising distances
// instead would need a clamp at the space's maximum, and clamping breaks
// the bound.) The draw uses attempt index 0 regardless of the actual
// attempt so that retried and re-resolved pairs observe identical values.
func (f *Injector) perturb(key int64, d float64) float64 {
	eps, ratio := f.cfg.NearMetricEps, f.cfg.NearMetricRatio
	if eps <= 0 && ratio <= 1 {
		return d
	}
	if eps > 0 {
		u := f.roll(key, 0, rollPerturb)
		d = math.Max(0, d-u*eps/2)
	}
	if ratio > 1 {
		u := f.roll(key, 0, rollPerturbRatio)
		d *= 1 - u*(1-1/ratio)
	}
	return d
}

// roll draws the uniform [0,1) variate for one decision stream.
func (f *Injector) roll(key, attempt int64, stream int64) float64 {
	return float64(hash64(f.cfg.Seed, key, attempt, stream)>>11) / float64(1<<53)
}

// Decision streams keep the per-attempt rolls independent of each other.
const (
	rollTransient int64 = iota + 1
	rollRateLimit
	rollCorrupt
	rollCorruptKind
	rollLatency
	rollPerturb
	rollPerturbRatio
)

// pairKey normalises an unordered pair into one int64.
func pairKey(i, j int) int64 {
	if i > j {
		i, j = j, i
	}
	return int64(i)<<32 | int64(uint32(j))
}

// hash64 is a splitmix64-style mix of the decision coordinates; it is the
// entire source of randomness, making every schedule a pure function of
// the seed.
func hash64(seed, key, attempt, stream int64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(key)*0xbf58476d1ce4e5b9 ^
		uint64(attempt)*0x94d049bb133111eb ^ uint64(stream)*0xd6e8feb86659fd93
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

var _ metric.FallibleOracle = (*Injector)(nil)
