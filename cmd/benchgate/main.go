// Command benchgate turns `go test -bench` output into a pass/fail
// throughput gate plus a machine-readable report. CI's bench-smoke job
// pipes the bound-store benchmarks through it to enforce the Tri stamp
// intersection's speedup floor over the per-element binary-probe
// adjacency scan — both benchmarks run in the same job on the same
// machine, so the enforced quantity is a ratio, not a machine-dependent
// absolute time.
//
// Usage:
//
//	go test -run '^$' -bench 'TriBoundsCSR$|TriAdjacencyScan$' -count 3 . | benchgate \
//	    -subject BenchmarkTriBoundsCSR \
//	    -base BenchmarkTriAdjacencyScan \
//	    -min 3.5 -out BENCH_boundstore.json
//
// The gate compares one named unit, ns/op unless -unit says otherwise;
// the unit must be a cost, lower being better. Call-count benchmarks
// report their deterministic oracle calls as calls/op, and their gates
// pass -unit calls/op:
//
//	go test -run '^$' -bench 'SearchGraphBuild' -benchtime 1x . | benchgate \
//	    -subject BenchmarkSearchGraphBuildIF \
//	    -base BenchmarkSearchGraphBuildNaive \
//	    -unit calls/op -min 1.5 -out BENCH_searchgraph.json
//
// Every benchmark line on stdin that carries the unit is recorded in the
// JSON report; with -count > 1 the best (minimum) value per benchmark is
// used, the usual guard against scheduler noise. Exit status 1 when the
// subject or base benchmark is missing, when its line lacks the unit, or
// when the speedup is below -min.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's aggregated measurement in the JSON report.
type result struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"` // best (min) across runs, in the report's unit
	Runs  int     `json:"runs"`
}

// report is the schema of the BENCH_*.json reports.
type report struct {
	Subject    string   `json:"subject"`
	Base       string   `json:"base"`
	Unit       string   `json:"unit"`
	Speedup    float64  `json:"speedup"` // base value ÷ subject value
	MinSpeedup float64  `json:"min_speedup"`
	Pass       bool     `json:"pass"`
	Benchmarks []result `json:"benchmarks"`
}

func main() {
	subject := flag.String("subject", "BenchmarkTriBoundsCSR", "benchmark whose throughput is gated")
	base := flag.String("base", "BenchmarkTriAdjacencyScan", "baseline benchmark the subject is compared against")
	unit := flag.String("unit", "ns/op", "benchmark unit to compare, a cost per op (lower is better)")
	min := flag.Float64("min", 3.5, "minimum required speedup (base value ÷ subject value, in -unit)")
	out := flag.String("out", "", "write the JSON report to this file ('' = stdout only)")
	flag.Parse()

	rep, err := gate(os.Stdin, *subject, *base, *unit, *min)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: encode report: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	os.Stdout.Write(blob)
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
	}
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: %s is %.2fx better than %s in %s, floor is %.2fx\n",
			rep.Subject, rep.Speedup, rep.Base, rep.Unit, rep.MinSpeedup)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchgate: ok: %s is %.2fx better than %s in %s (floor %.2fx)\n",
		rep.Subject, rep.Speedup, rep.Base, rep.Unit, rep.MinSpeedup)
}

// gate parses benchmark output and evaluates the speedup floor in the
// given unit. It is the whole tool behind the flag handling, split out
// for testing.
func gate(r io.Reader, subject, base, unit string, minSpeedup float64) (*report, error) {
	best, runs, seen, err := parseBench(r, unit)
	if err != nil {
		return nil, err
	}
	if len(seen) == 0 {
		return nil, fmt.Errorf("no benchmark lines on input (want `go test -bench` output)")
	}
	for _, name := range []string{subject, base} {
		if !seen[name] {
			return nil, fmt.Errorf("benchmark %q missing; saw %v", name, sortedKeys(seen))
		}
		if _, ok := best[name]; !ok {
			return nil, fmt.Errorf("benchmark %q reports no %s", name, unit)
		}
	}
	rep := &report{
		Subject:    subject,
		Base:       base,
		Unit:       unit,
		Speedup:    best[base] / best[subject],
		MinSpeedup: minSpeedup,
	}
	rep.Pass = rep.Speedup >= minSpeedup
	for _, n := range sortedKeys(best) {
		rep.Benchmarks = append(rep.Benchmarks, result{Name: n, Value: best[n], Runs: runs[n]})
	}
	return rep, nil
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// parseBench extracts one unit's figures from `go test -bench` output. A
// benchmark line looks like
//
//	BenchmarkTriBoundsCSR-8   3825606   148.8 ns/op   0 B/op   0 allocs/op
//
// (the -8 GOMAXPROCS suffix is optional), each value followed by its
// unit. Repeated lines for the same benchmark (-count > 1) keep the
// minimum. seen names every benchmark with a line, best and runs only
// those whose lines carry the unit. Non-benchmark lines are ignored, so
// the raw `go test` stream can be piped in unfiltered.
func parseBench(r io.Reader, unit string) (best map[string]float64, runs map[string]int, seen map[string]bool, err error) {
	best = make(map[string]float64)
	runs = make(map[string]int)
	seen = make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if cut := strings.LastIndexByte(name, '-'); cut > 0 {
			// Strip the GOMAXPROCS suffix iff numeric (benchmark names
			// themselves may contain dashes).
			if _, perr := strconv.Atoi(name[cut+1:]); perr == nil {
				name = name[:cut]
			}
		}
		seen[name] = true
		// Locate the unit; its value is the preceding field.
		for x := 2; x < len(f); x++ {
			if f[x] != unit {
				continue
			}
			v, perr := strconv.ParseFloat(f[x-1], 64)
			if perr != nil {
				return nil, nil, nil, fmt.Errorf("line %q: bad %s value %q", sc.Text(), unit, f[x-1])
			}
			if old, ok := best[name]; !ok || v < old {
				best[name] = v
			}
			runs[name]++
			break
		}
	}
	return best, runs, seen, sc.Err()
}
