package resilient

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"metricprox/internal/metric"
	"metricprox/internal/obs"
)

// scriptedOracle serves a fixed outcome sequence per call (round-robin
// over the script), recording how many attempts it saw.
type scriptedOracle struct {
	mu     sync.Mutex
	n      int
	script []scriptStep
	calls  int
}

type scriptStep struct {
	d   float64
	err error
}

func (s *scriptedOracle) Len() int { return s.n }

func (s *scriptedOracle) DistanceCtx(ctx context.Context, i, j int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	step := s.script[s.calls%len(s.script)]
	s.calls++
	s.mu.Unlock()
	return step.d, step.err
}

func (s *scriptedOracle) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

var errBoom = errors.New("boom")

// instantSleep makes retry tests run in microseconds while still honouring
// cancellation, like the real sleep.
func instantSleep(o *Oracle) {
	o.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
}

func TestRetryUntilSuccess(t *testing.T) {
	base := &scriptedOracle{n: 8, script: []scriptStep{
		{err: errBoom}, {err: errBoom}, {d: 0.25},
	}}
	o := New(base, Policy{MaxAttempts: 5, Seed: 1})
	instantSleep(o)
	d, err := o.DistanceCtx(context.Background(), 0, 1)
	if err != nil || d != 0.25 {
		t.Fatalf("DistanceCtx = (%v, %v), want (0.25, nil)", d, err)
	}
	ct := o.Counters()
	if ct.Attempts != 3 || ct.Retries != 2 || ct.Successes != 1 {
		t.Fatalf("counters = %+v, want 3 attempts / 2 retries / 1 success", ct)
	}
}

func TestAttemptBudgetExhaustion(t *testing.T) {
	base := &scriptedOracle{n: 8, script: []scriptStep{{err: errBoom}}}
	o := New(base, Policy{MaxAttempts: 3, FailureThreshold: -1, Seed: 1})
	instantSleep(o)
	_, err := o.DistanceCtx(context.Background(), 0, 1)
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want ErrExhausted wrapping errBoom", err)
	}
	if base.callCount() != 3 {
		t.Fatalf("backend saw %d attempts, want 3", base.callCount())
	}
	ct := o.Counters()
	if ct.Retries != 2 || ct.Exhausted != 1 {
		t.Fatalf("counters = %+v, want 2 retries / 1 exhausted", ct)
	}
}

func TestCorruptValuesAreRejectedAndRetried(t *testing.T) {
	base := &scriptedOracle{n: 8, script: []scriptStep{
		{d: math.NaN()}, {d: -2}, {d: 0.5},
	}}
	o := New(base, Policy{MaxAttempts: 4, Seed: 1})
	instantSleep(o)
	d, err := o.DistanceCtx(context.Background(), 1, 2)
	if err != nil || d != 0.5 {
		t.Fatalf("DistanceCtx = (%v, %v), want (0.5, nil)", d, err)
	}
	if ct := o.Counters(); ct.Corrupts != 2 || ct.Retries != 2 {
		t.Fatalf("counters = %+v, want 2 corrupt rejections and 2 retries", ct)
	}
}

func TestBreakerOpensAndFastFails(t *testing.T) {
	base := &scriptedOracle{n: 8, script: []scriptStep{{err: errBoom}}}
	now := time.Unix(0, 0)
	o := New(base, Policy{MaxAttempts: 1, FailureThreshold: 3, Cooldown: time.Second, Seed: 1})
	instantSleep(o)
	o.br.now = func() time.Time { return now }

	for c := 0; c < 3; c++ {
		if _, err := o.DistanceCtx(context.Background(), 0, 1); !errors.Is(err, ErrExhausted) {
			t.Fatalf("call %d: err = %v, want ErrExhausted", c, err)
		}
	}
	if st := o.State(); st != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", st)
	}
	if o.Ready() {
		t.Fatal("Ready() = true with an open breaker mid-cooldown")
	}
	attemptsBefore := base.callCount()
	if _, err := o.DistanceCtx(context.Background(), 0, 1); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker call: err = %v, want ErrBreakerOpen", err)
	}
	if base.callCount() != attemptsBefore {
		t.Fatal("open breaker still reached the backend")
	}
	ct := o.Counters()
	if ct.BreakerOpens != 1 || ct.FastFails != 1 {
		t.Fatalf("counters = %+v, want 1 breaker open and 1 fast fail", ct)
	}

	// Cooldown over: half-open admits a probe; a failed probe reopens.
	now = now.Add(2 * time.Second)
	if st := o.State(); st != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", st)
	}
	if _, err := o.DistanceCtx(context.Background(), 0, 1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("probe call: err = %v, want ErrExhausted", err)
	}
	if st := o.State(); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}
	if ct := o.Counters(); ct.BreakerOpens != 2 {
		t.Fatalf("BreakerOpens = %d, want 2", ct.BreakerOpens)
	}

	// A successful probe closes the breaker.
	now = now.Add(2 * time.Second)
	base.mu.Lock()
	base.script = []scriptStep{{d: 0.125}}
	base.mu.Unlock()
	d, err := o.DistanceCtx(context.Background(), 0, 1)
	if err != nil || d != 0.125 {
		t.Fatalf("post-recovery call = (%v, %v), want (0.125, nil)", d, err)
	}
	if st := o.State(); st != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", st)
	}
	if !o.Ready() {
		t.Fatal("Ready() = false with a closed breaker")
	}
}

func TestPerCallTimeout(t *testing.T) {
	slow := metric.NewLatencyOracle(unitSpace(8), time.Hour)
	o := New(slow, Policy{MaxAttempts: 2, PerCallTimeout: time.Millisecond, FailureThreshold: -1, Seed: 1})
	instantSleep(o)
	_, err := o.DistanceCtx(context.Background(), 0, 1)
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrExhausted wrapping DeadlineExceeded", err)
	}
	if ct := o.Counters(); ct.Timeouts != 2 {
		t.Fatalf("Timeouts = %d, want 2", ct.Timeouts)
	}
}

func TestParentContextCancellationIsTerminal(t *testing.T) {
	base := &scriptedOracle{n: 8, script: []scriptStep{{err: errBoom}}}
	o := New(base, Policy{MaxAttempts: 100, FailureThreshold: -1, Seed: 1})
	instantSleep(o)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.DistanceCtx(ctx, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if base.callCount() != 0 {
		t.Fatalf("cancelled call reached the backend %d times", base.callCount())
	}
}

func TestBackoffDeadlineShortCircuit(t *testing.T) {
	// Delays of ~1h against a 50ms deadline: the policy must refuse to
	// sleep into certain failure rather than blocking until the deadline.
	base := &scriptedOracle{n: 8, script: []scriptStep{{err: errBoom}}}
	o := New(base, Policy{
		MaxAttempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour,
		FailureThreshold: -1, Seed: 1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := o.DistanceCtx(ctx, 0, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("backoff ignored the deadline, blocked %v", elapsed)
	}
	if base.callCount() != 1 {
		t.Fatalf("backend saw %d attempts, want 1 (backoff refused)", base.callCount())
	}
}

func TestBackoffDeterminismAndCap(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 42}.Normalize()
	q := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 42}.Normalize()
	r := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 43}.Normalize()
	differs := false
	for attempt := 1; attempt <= 12; attempt++ {
		for _, pair := range [][2]int{{0, 1}, {3, 9}, {100, 7}} {
			a := p.Backoff(pair[0], pair[1], attempt)
			b := q.Backoff(pair[0], pair[1], attempt)
			c := r.Backoff(pair[0], pair[1], attempt)
			if a != b {
				t.Fatalf("same seed, different delays: %v vs %v (pair %v attempt %d)", a, b, pair, attempt)
			}
			if a != c {
				differs = true
			}
			if attempt == 1 && a != 0 {
				t.Fatalf("first attempt must not back off, got %v", a)
			}
			if a > p.MaxDelay {
				t.Fatalf("delay %v exceeds cap %v", a, p.MaxDelay)
			}
			if attempt > 1 {
				if min := time.Duration(float64(p.BaseDelay) * (1 - p.JitterFrac)); a < min {
					t.Fatalf("delay %v below jitter floor %v", a, min)
				}
			}
		}
	}
	if !differs {
		t.Fatal("different seeds never changed any delay (jitter not seeded?)")
	}
}

func TestBackoffTable(t *testing.T) {
	// JitterFrac ~0 pins delays to the raw exponential curve.
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond,
		Multiplier: 2, JitterFrac: 1e-12, Seed: 1}.Normalize()
	want := []time.Duration{0, 10, 20, 40, 80, 80, 80}
	for attempt, w := range want {
		got := p.Backoff(0, 1, attempt+1)
		wantD := w * time.Millisecond
		if diff := got - wantD; diff < -time.Millisecond || diff > time.Millisecond {
			t.Fatalf("Backoff(attempt %d) = %v, want ~%v", attempt+1, got, wantD)
		}
	}
}

// pairScript serves each pair its own pass through the script, so what
// a call sees does not depend on how concurrent callers interleave.
type pairScript struct {
	mu     sync.Mutex
	n      int
	script []scriptStep
	next   map[[2]int]int
}

func (s *pairScript) Len() int { return s.n }

func (s *pairScript) DistanceCtx(ctx context.Context, i, j int) (float64, error) {
	s.mu.Lock()
	k := s.next[[2]int{i, j}]
	s.next[[2]int{i, j}] = k + 1
	s.mu.Unlock()
	step := s.script[k%len(s.script)]
	return step.d, step.err
}

func TestConcurrentUse(t *testing.T) {
	// No two failures are adjacent in the script, so every call succeeds
	// within two attempts.
	base := &pairScript{n: 64, next: make(map[[2]int]int), script: []scriptStep{
		{err: errBoom}, {d: 0.5}, {d: 0.25}, {err: errBoom}, {d: 0.75},
	}}
	o := New(base, Policy{MaxAttempts: 6, FailureThreshold: -1, Seed: 1})
	instantSleep(o)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if _, err := o.DistanceCtx(context.Background(), w, 8+k%8); err != nil {
					panic(fmt.Sprintf("unexpected failure: %v", err))
				}
			}
		}(w)
	}
	wg.Wait()
	ct := o.Counters()
	if ct.Successes != 400 {
		t.Fatalf("Successes = %d, want 400", ct.Successes)
	}
	if ct.Attempts != ct.Successes+ct.Retries {
		t.Fatalf("attempt ledger out of balance: %+v", ct)
	}
}

func unitSpace(n int) metric.Space {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(i) / float64(n)}
	}
	return metric.NewVectors(pts, 2, 1)
}

// TestObserveMatchesCounters attaches a registry to an oracle whose
// breaker has already opened: every series must still equal Counters(),
// and the state gauge must follow the breaker.
func TestObserveMatchesCounters(t *testing.T) {
	base := &scriptedOracle{n: 8, script: []scriptStep{{err: errBoom}}}
	o := New(base, Policy{MaxAttempts: 2, FailureThreshold: 3, Cooldown: time.Hour, Seed: 1})
	instantSleep(o)
	call := func() { o.DistanceCtx(context.Background(), 0, 1) }
	call()
	call() // the third failure opens the breaker mid-call
	reg := obs.NewRegistry()
	o.Observe(reg)
	if got := reg.Gauge(MetricBreakerState).Value(); got != float64(BreakerOpen) {
		t.Fatalf("state gauge on Observe = %v, want %v", got, float64(BreakerOpen))
	}
	call() // fast-fails
	ct := o.Counters()
	if ct.BreakerOpens != 1 || ct.FastFails != 2 || ct.Exhausted != 1 {
		t.Fatalf("counters = %+v, want 1 open, 2 fast fails, 1 exhausted", ct)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{MetricAttempts, ct.Attempts},
		{MetricSuccesses, ct.Successes},
		{MetricRetries, ct.Retries},
		{MetricTimeouts, ct.Timeouts},
		{MetricCorrupts, ct.Corrupts},
		{MetricBreakerOpens, ct.BreakerOpens},
		{MetricFastFails, ct.FastFails},
		{MetricExhausted, ct.Exhausted},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, Counters says %d", c.name, got, c.want)
		}
	}
	if h := reg.Histogram(MetricAttemptLatency); h.Count() != 0 {
		t.Errorf("latency histogram saw %d attempts after Observe, want 0 (only fast fails)", h.Count())
	}
}
