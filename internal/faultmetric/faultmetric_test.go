package faultmetric

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"metricprox/internal/metric"
	"metricprox/internal/obs"
)

func unitSpace(n int) metric.Space {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(i) / float64(n)}
	}
	return metric.NewVectors(pts, 2, 1)
}

// attemptTrace replays every (pair, attempt) outcome for a fixed schedule.
func attemptTrace(t *testing.T, cfg Config, pairs [][2]int, attempts int) []string {
	t.Helper()
	inj := New(unitSpace(16), cfg)
	var out []string
	for a := 0; a < attempts; a++ {
		for _, p := range pairs {
			d, err := inj.DistanceCtx(context.Background(), p[0], p[1])
			switch {
			case err != nil:
				out = append(out, "err:"+err.Error())
			case math.IsNaN(d):
				out = append(out, "nan")
			case d < 0:
				out = append(out, "neg")
			default:
				out = append(out, "ok")
			}
		}
	}
	return out
}

func TestDeterministicFromSeed(t *testing.T) {
	cfg := Config{Seed: 7, TransientRate: 0.3, RateLimitRate: 0.1, CorruptRate: 0.1}
	pairs := [][2]int{{0, 1}, {2, 3}, {4, 9}, {1, 7}}
	a := attemptTrace(t, cfg, pairs, 6)
	b := attemptTrace(t, cfg, pairs, 6)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}

	cfg.Seed = 8
	c := attemptTrace(t, cfg, pairs, 6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules (suspicious)")
	}
}

func TestInjectionKindsAndCounters(t *testing.T) {
	cfg := Config{Seed: 3, TransientRate: 0.4, RateLimitRate: 0.2, CorruptRate: 0.2}
	inj := New(unitSpace(32), cfg)
	var transients, ratelimits, corrupts, oks int64
	for i := 0; i < 32; i++ {
		for j := i + 1; j < 32; j++ {
			d, err := inj.DistanceCtx(context.Background(), i, j)
			switch {
			case errors.Is(err, ErrTransient):
				transients++
			case errors.Is(err, ErrRateLimited):
				ratelimits++
			case err != nil:
				t.Fatalf("unexpected error kind: %v", err)
			case math.IsNaN(d) || d < 0:
				corrupts++
			default:
				oks++
			}
		}
	}
	ct := inj.Counters()
	if ct.Transients != transients || ct.RateLimits != ratelimits || ct.Corrupts != corrupts {
		t.Fatalf("counters %+v disagree with observed (t=%d r=%d c=%d)", ct, transients, ratelimits, corrupts)
	}
	if ct.Calls != transients+ratelimits+corrupts+oks {
		t.Fatalf("Calls = %d, want %d", ct.Calls, transients+ratelimits+corrupts+oks)
	}
	if transients == 0 || ratelimits == 0 || corrupts == 0 {
		t.Fatalf("expected every injection kind to fire over 496 pairs: t=%d r=%d c=%d", transients, ratelimits, corrupts)
	}
	if ct.BadResponses() != transients+ratelimits+corrupts {
		t.Fatalf("BadResponses = %d, want %d", ct.BadResponses(), transients+ratelimits+corrupts)
	}
}

func TestOutageWindows(t *testing.T) {
	inj := New(unitSpace(8), Config{Seed: 1, OutagePeriod: 10, OutageLen: 3})
	var got []bool
	for c := 0; c < 30; c++ {
		_, err := inj.DistanceCtx(context.Background(), 0, 1)
		if err != nil && !errors.Is(err, ErrOutage) {
			t.Fatalf("call %d: unexpected error %v", c, err)
		}
		got = append(got, err != nil)
	}
	for c, down := range got {
		want := c%10 < 3
		if down != want {
			t.Fatalf("call %d: outage = %v, want %v", c, down, want)
		}
	}
	if ct := inj.Counters(); ct.Outages != 9 {
		t.Fatalf("Outages = %d, want 9", ct.Outages)
	}
}

func TestMaxFailuresPerPairGuaranteesSuccess(t *testing.T) {
	cfg := Config{Seed: 5, TransientRate: 1, MaxFailuresPerPair: 3}
	inj := New(unitSpace(8), cfg)
	for a := 0; a < 3; a++ {
		if _, err := inj.DistanceCtx(context.Background(), 2, 5); !errors.Is(err, ErrTransient) {
			t.Fatalf("attempt %d: err = %v, want ErrTransient", a, err)
		}
	}
	d, err := inj.DistanceCtx(context.Background(), 2, 5)
	if err != nil {
		t.Fatalf("attempt past the failure cap still failed: %v", err)
	}
	want := unitSpace(8).Distance(2, 5)
	if d != want {
		t.Fatalf("post-cap distance = %v, want %v", d, want)
	}
}

func TestLatencyHonoursContext(t *testing.T) {
	inj := New(unitSpace(8), Config{Seed: 2, Latency: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := inj.DistanceCtx(ctx, 0, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	ct := inj.Counters()
	if ct.Latencies != 1 || ct.CtxCancels != 1 {
		t.Fatalf("counters = %+v, want one latency and one ctx cancel", ct)
	}
}

func TestCleanConfigPassesThrough(t *testing.T) {
	space := unitSpace(8)
	inj := New(space, Config{Seed: 9})
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			d, err := inj.DistanceCtx(context.Background(), i, j)
			if err != nil {
				t.Fatalf("clean injector failed: %v", err)
			}
			if want := space.Distance(i, j); d != want {
				t.Fatalf("Distance(%d,%d) = %v, want %v", i, j, d, want)
			}
		}
	}
}

func TestNearMetricPerturbation(t *testing.T) {
	n := 16
	cfg := Config{Seed: 11, NearMetricEps: 0.3}
	inj := New(unitSpace(n), cfg)
	base := unitSpace(n)
	ctx := context.Background()

	perturbed := make(map[[2]int]float64)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d, err := inj.DistanceCtx(ctx, i, j)
			if err != nil {
				t.Fatalf("DistanceCtx(%d,%d): %v", i, j, err)
			}
			orig := base.Distance(i, j)
			if d > orig {
				t.Fatalf("perturbation raised d(%d,%d): %v > %v", i, j, d, orig)
			}
			if d < 0 {
				t.Fatalf("perturbation went negative on (%d,%d): %v", i, j, d)
			}
			if orig-d > cfg.NearMetricEps/2 {
				t.Fatalf("per-pair shrink %v exceeds eps/2 = %v", orig-d, cfg.NearMetricEps/2)
			}
			perturbed[[2]int{i, j}] = d
		}
	}
	// Symmetry and retry-stability: the perturbation is per-pair, not
	// per-attempt, so replays see identical values.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d, err := inj.DistanceCtx(ctx, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if d != perturbed[[2]int{i, j}] {
				t.Fatalf("replay of (%d,%d) changed: %v vs %v", i, j, d, perturbed[[2]int{i, j}])
			}
			if d != perturbed[[2]int{j, i}] {
				t.Fatalf("perturbation asymmetric on (%d,%d)", i, j)
			}
		}
	}
	// Margin bound: every triangle's additive violation ≤ MarginBound.
	bound := cfg.MarginBound()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				dij := perturbed[[2]int{i, j}]
				dik := perturbed[[2]int{i, k}]
				dkj := perturbed[[2]int{k, j}]
				if dij > dik+dkj+bound+1e-12 {
					t.Fatalf("triangle (%d,%d,%d) margin %v exceeds bound %v",
						i, j, k, dij-(dik+dkj), bound)
				}
			}
		}
	}
	if got := inj.Counters().Perturbations; got == 0 {
		t.Fatal("no perturbations counted despite eps > 0")
	}
	// There must be at least one actual triangle violation at this eps,
	// or the chaos strict-detect test would be vacuous.
	viol := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if perturbed[[2]int{i, j}] > perturbed[[2]int{i, k}]+perturbed[[2]int{k, j}]+1e-9 {
					viol++
				}
			}
		}
	}
	if viol == 0 {
		t.Fatal("perturbation produced a perfect metric; injected eps too small to test anything")
	}
}

func TestNearMetricRatioBound(t *testing.T) {
	n := 12
	R := 1.5
	cfg := Config{Seed: 5, NearMetricRatio: R}
	inj := New(unitSpace(n), cfg)
	base := unitSpace(n)
	ctx := context.Background()
	d := func(i, j int) float64 {
		v, err := inj.DistanceCtx(ctx, i, j)
		if err != nil {
			t.Fatalf("DistanceCtx(%d,%d): %v", i, j, err)
		}
		return v
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := d(i, j)
			orig := base.Distance(i, j)
			if v > orig || v < orig/R-1e-12 {
				t.Fatalf("ratio perturbation out of [d/R, d] on (%d,%d): %v vs %v", i, j, v, orig)
			}
			for k := 0; k < n; k++ {
				if v > R*(d(i, k)+d(k, j))+1e-12 {
					t.Fatalf("triangle (%d,%d,%d) violates the ρ=%v contract", i, j, k, R)
				}
			}
		}
	}
}

func TestNearMetricOffIsIdentity(t *testing.T) {
	n := 8
	inj := New(unitSpace(n), Config{Seed: 3})
	base := unitSpace(n)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d, err := inj.DistanceCtx(ctx, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if d != base.Distance(i, j) {
				t.Fatalf("eps=0 injector changed d(%d,%d)", i, j)
			}
		}
	}
	if got := inj.Counters().Perturbations; got != 0 {
		t.Fatalf("Perturbations = %d with near-metric off", got)
	}
}

// TestObserveSumsInjectors observes two injectors into one registry, one
// of them only after it has injected: each Counters() counts its own
// attempts, and every series equals the sum of the two.
func TestObserveSumsInjectors(t *testing.T) {
	cfg := Config{Seed: 3, TransientRate: 0.4, RateLimitRate: 0.2, CorruptRate: 0.2, OutagePeriod: 7}
	drive := func(inj *Injector) {
		for i := 0; i < 16; i++ {
			for j := i + 1; j < 16; j++ {
				inj.DistanceCtx(context.Background(), i, j)
			}
		}
	}
	reg := obs.NewRegistry()
	a, b := New(unitSpace(16), cfg), New(unitSpace(16), cfg)
	a.Observe(reg)
	drive(a)
	drive(b)
	b.Observe(reg)
	drive(b)
	ca, cb := a.Counters(), b.Counters()
	if ca.Calls != 120 || cb.Calls != 240 {
		t.Fatalf("Calls = %d and %d, want 120 and 240", ca.Calls, cb.Calls)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{MetricCalls, ca.Calls + cb.Calls},
		{MetricTransients, ca.Transients + cb.Transients},
		{MetricRateLimits, ca.RateLimits + cb.RateLimits},
		{MetricOutages, ca.Outages + cb.Outages},
		{MetricCorrupts, ca.Corrupts + cb.Corrupts},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}
