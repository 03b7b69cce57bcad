package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: metricprox
cpu: some CPU
BenchmarkTriBoundsCSR-8          3825606     151.2 ns/op     0 B/op   0 allocs/op
BenchmarkTriBoundsCSR-8          3901220     148.8 ns/op     0 B/op   0 allocs/op
BenchmarkTriBoundsCSR-8          3791004     150.1 ns/op     0 B/op   0 allocs/op
BenchmarkTriBoundsBatch-8          10000   118130 ns/op     0.0 allocs/pair   1024 pairs/op
BenchmarkTriAdjacencyScan-8       702458    1103 ns/op     0 B/op   0 allocs/op
BenchmarkTriAdjacencyScan-8       698121    1111 ns/op     0 B/op   0 allocs/op
PASS
ok  	metricprox	12.345s
`

// callsOutput is the call-count gate's shape: ns/op is the wall time of
// one build, calls/op its deterministic oracle-call count.
const callsOutput = `BenchmarkSearchGraphBuildIF-8      	       1	 812345678 ns/op	      4520 calls/op
BenchmarkSearchGraphBuildNaive-8   	       1	 401234567 ns/op	      8498 calls/op
PASS
`

func TestParseBench(t *testing.T) {
	best, runs, _, err := parseBench(strings.NewReader(sampleOutput), "ns/op")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ns   float64
		runs int
	}{
		{"BenchmarkTriBoundsCSR", 148.8, 3},
		{"BenchmarkTriBoundsBatch", 118130, 1},
		{"BenchmarkTriAdjacencyScan", 1103, 2},
	}
	if len(best) != len(cases) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(best), len(cases), best)
	}
	for _, c := range cases {
		if best[c.name] != c.ns {
			t.Errorf("%s: best = %v, want %v (minimum across runs)", c.name, best[c.name], c.ns)
		}
		if runs[c.name] != c.runs {
			t.Errorf("%s: runs = %d, want %d", c.name, runs[c.name], c.runs)
		}
	}
}

func TestParseBenchKeepsDashedNames(t *testing.T) {
	// Only a numeric trailing segment is a GOMAXPROCS suffix; sub-benchmark
	// names with dashes survive intact.
	in := "BenchmarkThing/size-big-4   10   50.0 ns/op\nBenchmarkPlain   10   25.0 ns/op\n"
	best, _, _, err := parseBench(strings.NewReader(in), "ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := best["BenchmarkThing/size-big"]; !ok {
		t.Errorf("GOMAXPROCS suffix not stripped: %v", best)
	}
	if best["BenchmarkPlain"] != 25 {
		t.Errorf("suffix-free benchmark mangled: %v", best)
	}
}

func TestGatePassAndFail(t *testing.T) {
	rep, err := gate(strings.NewReader(sampleOutput),
		"BenchmarkTriBoundsCSR", "BenchmarkTriAdjacencyScan", "ns/op", 3.5)
	if err != nil {
		t.Fatal(err)
	}
	base, subj := 1103.0, 148.8
	want := base / subj
	if rep.Speedup != want {
		t.Errorf("speedup = %v, want %v", rep.Speedup, want)
	}
	if !rep.Pass {
		t.Errorf("gate failed at floor 3.5 with speedup %.2f", rep.Speedup)
	}
	if len(rep.Benchmarks) != 3 {
		t.Errorf("report carries %d benchmarks, want 3", len(rep.Benchmarks))
	}

	rep, err = gate(strings.NewReader(sampleOutput),
		"BenchmarkTriBoundsCSR", "BenchmarkTriAdjacencyScan", "ns/op", 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Error("gate passed at an impossible floor of 100x")
	}
}

func TestGateMissingBenchmark(t *testing.T) {
	if _, err := gate(strings.NewReader(sampleOutput), "BenchmarkNope", "BenchmarkTriAdjacencyScan", "ns/op", 3.5); err == nil {
		t.Error("missing subject benchmark not reported")
	}
	if _, err := gate(strings.NewReader("PASS\nok x 1s\n"), "A", "B", "ns/op", 5); err == nil {
		t.Error("benchmark-free input not reported")
	}
}

// TestGateCallsUnit gates the call-count pair on calls/op, not on the
// wall time its lines also carry.
func TestGateCallsUnit(t *testing.T) {
	rep, err := gate(strings.NewReader(callsOutput),
		"BenchmarkSearchGraphBuildIF", "BenchmarkSearchGraphBuildNaive", "calls/op", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8498.0 / 4520.0; rep.Speedup != want || !rep.Pass {
		t.Errorf("speedup = %v pass = %v, want %v and pass", rep.Speedup, rep.Pass, want)
	}
	if rep.Unit != "calls/op" || len(rep.Benchmarks) != 2 || rep.Benchmarks[0].Value != 4520 {
		t.Errorf("report = %+v, want unit calls/op and the IF build's value 4520", rep)
	}
}

// TestGateMissingUnit fails a gate whose subject or base line lacks the
// unit instead of comparing nothing.
func TestGateMissingUnit(t *testing.T) {
	_, err := gate(strings.NewReader(sampleOutput),
		"BenchmarkTriBoundsCSR", "BenchmarkTriAdjacencyScan", "calls/op", 1.5)
	if err == nil || !strings.Contains(err.Error(), "reports no calls/op") {
		t.Errorf("gate on a unit no line carries: err = %v, want a missing-unit error", err)
	}
	mixed := callsOutput + "BenchmarkTriBoundsCSR-8   3825606   151.2 ns/op\n"
	_, err = gate(strings.NewReader(mixed),
		"BenchmarkTriBoundsCSR", "BenchmarkSearchGraphBuildNaive", "calls/op", 1.5)
	if err == nil || !strings.Contains(err.Error(), `"BenchmarkTriBoundsCSR" reports no calls/op`) {
		t.Errorf("subject line without the unit: err = %v, want a missing-unit error naming it", err)
	}
}
