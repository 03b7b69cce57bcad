package faultmetric

import (
	"context"
	"testing"

	"metricprox/internal/metric"
	"metricprox/internal/obs"
	"metricprox/internal/resilient"
)

// TestParseFlags pins the merge rule of the -faults and -near-metric
// flags: either alone gives its own spec's Config, both give the faults
// schedule with the near-metric perturbation, and a seed given in both
// is refused.
func TestParseFlags(t *testing.T) {
	faults := Config{Seed: 3, TransientRate: 0.2, MaxFailuresPerPair: SpecMaxFailuresPerPair}
	cases := []struct {
		name, faults, near string
		want               *Config
		err                string // the whole expected error, "" for success
	}{
		{name: "neither"},
		{name: "faults only", faults: "seed=3,rate=0.2", want: &faults},
		{name: "near only", near: "eps=0.1,ratio=1.5,seed=9", want: &Config{Seed: 9, NearMetricEps: 0.1, NearMetricRatio: 1.5}},
		{name: "near only, default seed", near: "eps=0.1", want: &Config{Seed: 1, NearMetricEps: 0.1}},
		{name: "both", faults: "seed=3,rate=0.2", near: "eps=0.1,ratio=1.5",
			want: &Config{Seed: 3, TransientRate: 0.2, MaxFailuresPerPair: SpecMaxFailuresPerPair, NearMetricEps: 0.1, NearMetricRatio: 1.5}},
		{name: "seed in both", faults: "seed=3,rate=0.2", near: "eps=0.1, seed=3",
			err: "-near-metric: seed is taken from -faults when both flags are set"},
		{name: "bad faults", faults: "seed=3", near: "eps=0.1",
			err: `-faults: faultmetric: spec "seed=3" missing required key rate`},
		{name: "bad near", faults: "rate=0.2", near: "ratio=0.5",
			err: "-near-metric: faultmetric: ratio must be ≥ 1 and finite, got 0.5"},
	}
	for _, c := range cases {
		got, err := ParseFlags(c.faults, c.near)
		if c.err != "" {
			if err == nil || err.Error() != c.err || got != nil {
				t.Errorf("%s: ParseFlags = %+v, %v; want nil, %q", c.name, got, err, c.err)
			}
			continue
		}
		if err != nil || (got == nil) != (c.want == nil) || (got != nil && *got != *c.want) {
			t.Errorf("%s: ParseFlags = %+v, %v; want %+v", c.name, got, err, c.want)
		}
	}
}

// TestStackLayers checks which oracle each Config gets: the plain oracle
// for no Config, a bare injector without transient faults, and the retry
// layer over the injector with them; a registry sees both layers' series.
func TestStackLayers(t *testing.T) {
	space := metric.NewVectors([][]float64{{0}, {1}, {3}}, 2, 1)
	if _, ok := Stack(space, nil, nil).(*metric.Oracle); !ok {
		t.Fatal("no Config: want the plain oracle")
	}
	if _, ok := Stack(space, &Config{Seed: 1, NearMetricEps: 0.1}, nil).(*Injector); !ok {
		t.Fatal("near-metric only: want a bare injector")
	}
	reg := obs.NewRegistry()
	o := Stack(space, &Config{Seed: 1, TransientRate: 0.5, MaxFailuresPerPair: SpecMaxFailuresPerPair}, reg)
	if _, ok := o.(*resilient.Oracle); !ok {
		t.Fatalf("transient faults: got %T, want the retry layer", o)
	}
	if d, err := o.DistanceCtx(context.Background(), 0, 2); err != nil || d != 3 {
		t.Fatalf("DistanceCtx(0, 2) = %v, %v; want 3 after retries", d, err)
	}
	for _, name := range []string{MetricCalls, resilient.MetricAttempts} {
		if reg.Counter(name).Value() == 0 {
			t.Errorf("series %s not observed", name)
		}
	}
}
