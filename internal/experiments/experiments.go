// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each runner is registered under the paper's
// artifact id (table2, fig3a, …), produces a stats.Table with the same
// rows/series the paper reports, and is exposed both through the
// cmd/proxbench CLI and through the repository-root benchmarks.
//
// Default sizes are laptop-scale; Config.Full raises them toward paper
// scale (the largest paper configurations — 8M-edge Prim runs and
// CPLEX-hours DFT instances — are trimmed, with a footnote on each table
// recording the trim). Shapes, not absolute numbers, are the reproduction
// target; see EXPERIMENTS.md for the paper-vs-measured record.
package experiments

import (
	"math"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/faultmetric"
	"metricprox/internal/metric"
	"metricprox/internal/obs"
	"metricprox/internal/prox"
	"metricprox/internal/resilient"
	"metricprox/internal/stats"
)

// Config controls experiment scale.
type Config struct {
	// Full raises sizes toward paper scale (minutes of runtime).
	Full bool
	// Quick shrinks sizes for CI and unit tests; overrides Full.
	Quick bool
	// Seed makes every dataset and randomised algorithm deterministic.
	Seed int64
	// FaultRate > 0 wraps every oracle in a deterministic fault injector
	// (transient errors at this per-attempt probability) behind the
	// resilient retry policy, so the suite measures the call-count and
	// wall-time overhead of surviving failures. The injector's per-pair
	// failure cap stays below the retry budget, so outputs — and the
	// cross-scheme checksums — are preserved exactly.
	FaultRate float64
	// FaultSeed seeds the fault schedule (independent of Seed so the same
	// dataset can be benchmarked under different schedules).
	FaultSeed int64
	// Observer, when non-nil, is attached to every session the suite
	// builds (core.WithObserver) and to the fault-injection and policy
	// layers when FaultRate > 0: each registry series sums its counter
	// over all of them, while every table cell still reads its own
	// session's Stats, and, if its Tracer is set, every comparison is
	// traced. Observation never changes results — see DESIGN.md §8.
	Observer *obs.Observer
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Config) *stats.Table
}

var registry []Runner

func register(id, title string, run func(Config) *stats.Table) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// paperOrder fixes the presentation order of the suite: the paper's tables
// first, then its figures, then the beyond-paper extensions.
var paperOrder = []string{
	"table2", "table3",
	"fig3a", "fig3b", "fig3c", "fig4a", "fig4b", "fig5a", "fig5b",
	"fig6a", "fig6b", "fig6c", "fig6d",
	"fig7a", "fig7b", "fig7c", "fig7d",
	"fig8a", "fig8b", "fig8c", "fig8d",
	"fig9a", "fig9b", "fig9c", "fig9d",
	"ext1", "ext2", "ext3", "ext4", "ext5", "ext6", "ext7", "ext8", "ext9",
	"ext10", "ext11", "ext12", "ext13",
}

// All returns every registered experiment in paper order; experiments
// missing from paperOrder (none today) are appended in registration order.
func All() []Runner {
	out := make([]Runner, 0, len(registry))
	seen := map[string]bool{}
	for _, id := range paperOrder {
		if r, ok := ByID(id); ok {
			out = append(out, r)
			seen[id] = true
		}
	}
	for _, r := range registry {
		if !seen[r.ID] {
			out = append(out, r)
		}
	}
	return out
}

// ByID looks up a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// logLandmarks is the paper's default landmark count, k = log₂(n).
func logLandmarks(n int) int {
	k := int(math.Round(math.Log2(float64(n))))
	if k < 2 {
		k = 2
	}
	return k
}

// runOutcome captures one algorithm execution over one scheme.
type runOutcome struct {
	Calls     int64         // successful oracle calls, bootstrap included
	Bootstrap int64         // calls spent on landmark bootstrap
	CPU       time.Duration // wall time of the run (oracle is in-memory)
	Checksum  float64       // output fingerprint for cross-scheme validation
	Landmarks int
	Retries   int64 // extra attempts under fault injection (0 fault-free)
}

// algoFunc runs a proximity algorithm over a session and returns an output
// fingerprint (MST weight, clustering cost, kNN distance sum).
type algoFunc func(*core.Session) float64

// runScheme executes algo over space with the given scheme. nLandmarks > 0
// selects that many landmarks; bootstrap resolves their rows up front.
// cfg.FaultRate > 0 routes every oracle call through the fault-injection
// and retry chain (see Config.FaultRate); Calls then counts successful
// resolutions, identical to the fault-free count because outputs are
// preserved, while Retries records the extra attempts the schedule cost.
func runScheme(space metric.Space, scheme core.Scheme, nLandmarks int, bootstrap bool, cfg Config, algo algoFunc) runOutcome {
	var lms []int
	if nLandmarks > 0 {
		lms = core.PickLandmarks(space.Len(), nLandmarks, cfg.Seed)
	}
	var fo metric.FallibleOracle = metric.NewOracle(space)
	if cfg.FaultRate > 0 {
		inj := faultmetric.New(space, faultmetric.Config{
			Seed:               cfg.FaultSeed,
			TransientRate:      cfg.FaultRate,
			MaxFailuresPerPair: faultmetric.SpecMaxFailuresPerPair,
		})
		ro := resilient.New(inj, resilient.RetryOnlyPolicy(cfg.FaultSeed))
		if cfg.Observer != nil {
			inj.Observe(cfg.Observer.Registry)
			ro.Observe(cfg.Observer.Registry)
		}
		fo = ro
	}
	var opts []core.Option
	if cfg.Observer != nil {
		opts = append(opts, core.WithObserver(cfg.Observer))
	}
	s := core.NewFallibleSessionWithLandmarks(fo, scheme, lms, opts...)
	start := time.Now()
	var boot int64
	if bootstrap && len(lms) > 0 {
		boot = s.Bootstrap(lms)
	}
	sum := algo(s)
	st := s.Stats()
	return runOutcome{
		Calls:     st.OracleCalls,
		Bootstrap: boot,
		CPU:       time.Since(start),
		Checksum:  sum,
		Landmarks: len(lms),
		Retries:   st.Retries,
	}
}

// Canonical algorithm fingerprints.

func primAlgo(s *core.Session) float64 { return prox.PrimMST(s).Weight }

// primLazyAlgo is the edge-versus-edge Prim used by the DFT experiments;
// see prox.PrimMSTLazy.
func primLazyAlgo(s *core.Session) float64 { return prox.PrimMSTLazy(s).Weight }

func kruskalAlgo(s *core.Session) float64 { return prox.KruskalMST(s).Weight }

func boruvkaAlgo(s *core.Session) float64 { return prox.BoruvkaMST(s).Weight }

func knnAlgo(k int) algoFunc {
	return func(s *core.Session) float64 {
		g := prox.KNNGraph(s, k)
		sum := 0.0
		for _, ns := range g {
			for _, nb := range ns {
				sum += nb.Dist
			}
		}
		return sum
	}
}

func pamAlgo(l int, seed int64) algoFunc {
	return func(s *core.Session) float64 { return prox.PAM(s, l, seed).Cost }
}

func claransAlgo(l int, cfg prox.CLARANSConfig) algoFunc {
	return func(s *core.Session) float64 { return prox.CLARANS(s, l, cfg).Cost }
}

// sizes returns the default or full-size object counts for the big sweeps.
// The paper's Prim tables use n = 64…4000 (2016…7,998,000 edges).
func sizes(cfg Config) []int {
	if cfg.Quick {
		return []int{32, 64}
	}
	if cfg.Full {
		return []int{64, 128, 256, 512, 1000, 2000}
	}
	return []int{64, 128, 256, 512}
}

// edgesOf returns C(n,2).
func edgesOf(n int) int64 { return int64(n) * int64(n-1) / 2 }
