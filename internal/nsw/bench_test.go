package nsw

import (
	"math/rand"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

// The layer benchmarks run on the search-hot workload's shape
// (cmd/proxload): the planar SF surrogate at n = 2,000, a Tri session
// bootstrapped on ⌊log₂ n⌋ = 10 PickLandmarks landmarks, the default
// build parameters seeded like the service's, and /search at k = 10 with
// ef = 64 for Zipf(1.1) query objects over a seeded permutation.
const (
	benchN    = 2000
	benchSeed = 1
	benchK    = 10
)

// benchSession returns the bootstrapped session and the build parameters
// of the benchmarks' shape.
func benchSession() (*core.Session, Params) {
	lms := core.PickLandmarks(benchN, 10, benchSeed)
	s := core.NewSessionWithLandmarks(metric.NewOracle(datasets.SFPOIPlanar(benchN, benchSeed)), core.SchemeTri, lms)
	s.Bootstrap(lms)
	return s, Params{Seed: benchSeed, Landmarks: lms}
}

// reportCounts reports the oracle calls and bound probes a benchmark's
// ops made, per op, from the session's Stats before and after them.
func reportCounts(b *testing.B, before, after core.Stats) {
	ops := float64(b.N)
	b.ReportMetric(float64(after.OracleCalls-before.OracleCalls)/ops, "calls/op")
	b.ReportMetric(float64(after.BoundProbes-before.BoundProbes)/ops, "probes/op")
}

// BenchmarkBuild times one NSW build over a freshly bootstrapped session,
// the set-up that dominates search-hot; the bootstrap is not timed.
func BenchmarkBuild(b *testing.B) {
	var total core.Stats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, p := benchSession()
		before := s.Stats()
		b.StartTimer()
		if _, err := Build(s, p); err != nil {
			b.Fatal(err)
		}
		after := s.Stats()
		total.OracleCalls += after.OracleCalls - before.OracleCalls
		total.BoundProbes += after.BoundProbes - before.BoundProbes
	}
	reportCounts(b, core.Stats{}, total)
}

// BenchmarkSearch times one /search-shaped query per op on a graph built
// once, untimed; the session keeps what earlier queries resolved, as the
// service's does.
func BenchmarkSearch(b *testing.B) {
	s, p := benchSession()
	g, err := Build(s, p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(benchSeed))
	zipf := rand.NewZipf(rng, 1.1, 1, benchN-1)
	perm := rng.Perm(benchN)
	before := s.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Search(s, perm[zipf.Uint64()], benchK, DefaultEfConstruction); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportCounts(b, before, s.Stats())
}
