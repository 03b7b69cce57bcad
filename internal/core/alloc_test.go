package core

import (
	"math"
	"testing"

	"metricprox/internal/bounds"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

// TestSettledComparisonsDoNotAllocate pins the allocation contract of the
// comparison surface on its hot paths: a comparison answered from the
// cache or settled from bounds allocates nothing, and neither does an
// uncontended resolution of a fresh pair (its single-flight claim is a
// nil map entry until a second goroutine needs the pair). The service's
// /search path runs about 130 settled comparisons per query, so a single
// allocation here would dominate its per-request garbage.
func TestSettledComparisonsDoNotAllocate(t *testing.T) {
	const n = 24
	build := func() *Session {
		s := NewSession(metric.NewOracle(datasets.RandomMetric(n, 5)), SchemeTri)
		for x := 1; x < n; x++ {
			s.Dist(0, x) // hub row: every other pair gets a Tri interval through 0
		}
		return s
	}

	// Find bounds-settled shapes on a probe session; the measured
	// sessions are built identically, so the same pairs settle there.
	probe := build()
	var less [4]int      // i, j, k, l with dist(i,j) < dist(k,l) decided
	var lt, ge [2]int    // pairs settled against cLT ("less") and cGE ("not less")
	var cLT, cGE float64 // thresholds for lt and ge
	var haveLess, haveGE bool
	for i := 1; i < n; i++ {
		for j := i + 1; j < n; j++ {
			lb, ub := probe.Bounds(i, j)
			if lt[0] == 0 {
				lt, cLT = [2]int{i, j}, ub+0.125
			}
			if !haveGE && lb > 0 {
				ge, cGE, haveGE = [2]int{i, j}, lb, true
			}
			for k := 1; k < n && !haveLess; k++ {
				for l := k + 1; l < n; l++ {
					lb2, ub2 := probe.Bounds(k, l)
					if r, ok := bounds.DecideLess(lb, ub, lb2, ub2); ok && r {
						less, haveLess = [4]int{i, j, k, l}, true
						break
					}
				}
			}
		}
	}
	if !haveLess || !haveGE {
		t.Fatal("no bounds-settled pairs on the hub graph; the test exercises nothing")
	}

	v := build()
	before := v.Stats()
	cases := []struct {
		name string
		f    func()
	}{
		{"Less/cache", func() { v.Less(0, 1, 0, 2) }},
		{"Less/bounds", func() { v.Less(less[0], less[1], less[2], less[3]) }},
		{"LessOutcome/cache", func() { v.LessOutcome(0, 1, 0, 2) }},
		{"LessOutcome/bounds", func() { v.LessOutcome(less[0], less[1], less[2], less[3]) }},
		{"LessThanErr/cache", func() { _, _ = v.LessThanErr(0, 1, 0.5) }},
		{"LessThanErr/bounds", func() { _, _ = v.LessThanErr(lt[0], lt[1], cLT) }},
		{"DistIfLess/cache", func() { v.DistIfLess(0, 1, 0.5) }},
		{"DistIfLess/bounds", func() { v.DistIfLess(ge[0], ge[1], cGE) }},
		{"DistIfLessErr/cache", func() { _, _, _ = v.DistIfLessErr(0, 1, 0.5) }},
		{"DistIfLessErr/bounds", func() { _, _, _ = v.DistIfLessErr(ge[0], ge[1], cGE) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.f); got != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, got)
		}
	}
	after := v.Stats()
	if after.OracleCalls != before.OracleCalls || after.ResolvedComparisons != before.ResolvedComparisons {
		t.Fatalf("the measured comparisons reached the oracle (%d calls); they were meant to settle",
			after.OracleCalls-before.OracleCalls)
	}
	if after.SavedComparisons == before.SavedComparisons || after.CacheHits == before.CacheHits {
		t.Fatalf("saved +%d, cache hits +%d; both paths must be exercised",
			after.SavedComparisons-before.SavedComparisons, after.CacheHits-before.CacheHits)
	}

	// Fresh resolutions: each call takes the next pair off the list of
	// unresolved ones, so every run claims, resolves and commits.
	var fresh [][2]int
	for i := 1; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if _, ok := v.Known(i, j); !ok {
				fresh = append(fresh, [2]int{i, j})
			}
		}
	}
	next := func() [2]int {
		p := fresh[0]
		fresh = fresh[1:]
		return p
	}
	resolving := []struct {
		name string
		f    func()
	}{
		{"DistErr/fresh", func() { p := next(); _, _ = v.DistErr(p[0], p[1]) }},
		{"DistIfLessErr/fresh", func() { p := next(); _, _, _ = v.DistIfLessErr(p[0], p[1], math.Inf(1)) }},
	}
	for _, c := range resolving {
		before := v.Stats().OracleCalls
		if got := testing.AllocsPerRun(100, c.f); got != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, got)
		}
		if calls := v.Stats().OracleCalls - before; calls != 101 {
			t.Fatalf("%s: %d oracle calls over 101 runs; every run must resolve a fresh pair", c.name, calls)
		}
	}
}
