package faultmetric

import (
	"errors"
	"fmt"
	"strings"

	"metricprox/internal/metric"
	"metricprox/internal/obs"
	"metricprox/internal/resilient"
)

// ParseFlags merges the -faults and -near-metric flag values that
// cmd/metricprox and cmd/metricproxd share into one injector Config, or
// nil when both are empty. One injector serves both fault classes, and
// its schedule — hence the seed — comes from -faults, so a seed in the
// near-metric spec would be silently ignored when both flags are set:
// ParseFlags rejects it instead. Each error names the flag it belongs
// to.
func ParseFlags(faults, near string) (*Config, error) {
	if faults == "" && near == "" {
		return nil, nil
	}
	var cfg Config
	if faults != "" {
		var err error
		if cfg, err = ParseSpec(faults); err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
	}
	if near != "" {
		nearCfg, err := ParseNearMetricSpec(near)
		if err != nil {
			return nil, fmt.Errorf("-near-metric: %w", err)
		}
		if faults == "" {
			return &nearCfg, nil
		}
		if hasSeedKey(near) {
			return nil, errors.New("-near-metric: seed is taken from -faults when both flags are set")
		}
		cfg.NearMetricEps = nearCfg.NearMetricEps
		cfg.NearMetricRatio = nearCfg.NearMetricRatio
	}
	return &cfg, nil
}

// hasSeedKey reports whether a key=value spec sets "seed".
func hasSeedKey(spec string) bool {
	for _, field := range strings.Split(spec, ",") {
		if key, _, ok := strings.Cut(strings.TrimSpace(field), "="); ok && key == "seed" {
			return true
		}
	}
	return false
}

// Stack returns the oracle the CLIs resolve space through: the plain
// oracle when cfg is nil, an injector under cfg otherwise, wrapped in
// resilient.RetryOnlyPolicy(cfg.Seed) when cfg injects transient faults
// (a pure near-metric injector never fails, so it needs no retries).
// When r is non-nil, the injector and the retry layer observe into it.
func Stack(space metric.Space, cfg *Config, r *obs.Registry) metric.FallibleOracle {
	if cfg == nil {
		return metric.NewOracle(space)
	}
	inj := New(space, *cfg)
	if r != nil {
		inj.Observe(r)
	}
	if cfg.TransientRate <= 0 {
		return inj
	}
	ro := resilient.New(inj, resilient.RetryOnlyPolicy(cfg.Seed))
	if r != nil {
		ro.Observe(r)
	}
	return ro
}
