package cachestore

import (
	"math"
	"path/filepath"
	"testing"

	"metricprox/internal/datasets"
)

// writeStore creates a store at path holding the full pairwise distance
// set of the given space over n points, with one pair overridden.
func writeCalibrationStore(t *testing.T, path string, n int, override func(i, j int, d float64) float64) {
	t.Helper()
	m := datasets.RandomMetric(n, 21)
	st, err := Create(path, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := m.Distance(i, j)
			if override != nil {
				d = override(i, j, d)
			}
			if _, err := st.Append(Record{i, j, d}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateRemovesPlantedViolation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.mpx")
	const n = 10
	writeCalibrationStore(t, path, n, func(i, j int, d float64) float64 {
		if i == 2 && j == 7 {
			return d + 1.5 // guaranteed violation: RandomMetric distances are ≤ 1
		}
		return d
	})
	rep, err := Calibrate(path, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != n*(n-1)/2 {
		t.Fatalf("Records = %d, want %d", rep.Records, n*(n-1)/2)
	}
	if want := n * (n - 1) * (n - 2) / 6; rep.Triangles != want {
		t.Fatalf("Triangles = %d, want %d", rep.Triangles, want)
	}
	if rep.MarginBefore <= 0.5 {
		t.Fatalf("MarginBefore = %v; planted violation not measured", rep.MarginBefore)
	}
	if rep.MarginAfter > 1e-9 {
		t.Fatalf("MarginAfter = %v after %d iterations", rep.MarginAfter, rep.Iterations)
	}
	// The rewritten store must load cleanly and actually be metric.
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.N() != n {
		t.Fatalf("universe size changed to %d", st.N())
	}
	d := make(map[[2]int]float64)
	if err := st.Replay(func(r Record) bool {
		d[[2]int{r.I, r.J}] = r.Dist
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(d) != rep.Records {
		t.Fatalf("rewritten store holds %d pairs, want %d", len(d), rep.Records)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				a, b, c := d[[2]int{i, j}], d[[2]int{i, k}], d[[2]int{j, k}]
				worst := math.Max(a-b-c, math.Max(b-a-c, c-a-b))
				if worst > 1e-8 {
					t.Fatalf("triangle (%d,%d,%d) still violated by %v", i, j, k, worst)
				}
			}
		}
	}
}

func TestCalibrateNoopOnMetricStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.mpx")
	writeCalibrationStore(t, path, 8, nil)
	before := make(map[[2]int]float64)
	st, _ := Open(path)
	st.Replay(func(r Record) bool { before[[2]int{r.I, r.J}] = r.Dist; return true })
	st.Close()

	rep, err := Calibrate(path, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MarginBefore > 1e-9 || rep.Iterations != 0 {
		t.Fatalf("metric store reported margin %v, %d iterations", rep.MarginBefore, rep.Iterations)
	}
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Replay(func(r Record) bool {
		if before[[2]int{r.I, r.J}] != r.Dist {
			t.Fatalf("pair (%d,%d) changed on a no-op calibration", r.I, r.J)
		}
		return true
	})
}

func TestCalibrateSparseStoreKeepsLonePairs(t *testing.T) {
	// A pair that closes no fully-cached triangle must pass through
	// unchanged, even when other triangles get repaired.
	path := filepath.Join(t.TempDir(), "cache.mpx")
	st, err := Create(path, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Fully cached triangle (0,1,2) with a violation, plus a lone pair (4,5).
	st.Append(Record{0, 1, 2.0})
	st.Append(Record{0, 2, 0.4})
	st.Append(Record{1, 2, 0.4})
	st.Append(Record{4, 5, 0.123})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Calibrate(path, 1e-10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triangles != 1 {
		t.Fatalf("Triangles = %d, want 1", rep.Triangles)
	}
	if rep.MarginAfter > 1e-10 {
		t.Fatalf("MarginAfter = %v", rep.MarginAfter)
	}
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := make(map[[2]int]float64)
	st.Replay(func(r Record) bool { got[[2]int{r.I, r.J}] = r.Dist; return true })
	if got[[2]int{4, 5}] != 0.123 {
		t.Fatalf("lone pair rewritten to %v", got[[2]int{4, 5}])
	}
	if got[[2]int{0, 1}] >= 2.0 {
		t.Fatal("violating side not reduced")
	}
}

func TestCalibrateDuplicateKeepsFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.mpx")
	st, err := Create(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	st.Append(Record{0, 1, 0.5})
	st.Append(Record{1, 0, 0.9}) // duplicate of (0,1); replay semantics keep 0.5
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Calibrate(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 1 {
		t.Fatalf("Records = %d, want 1 (duplicates collapse)", rep.Records)
	}
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	count := 0
	st.Replay(func(r Record) bool {
		count++
		if r.Dist != 0.5 {
			t.Fatalf("duplicate resolution: kept %v, want first-wins 0.5", r.Dist)
		}
		return true
	})
	if count != 1 {
		t.Fatalf("rewritten store holds %d records, want 1", count)
	}
}

func TestCalibrateMissingFile(t *testing.T) {
	if _, err := Calibrate(filepath.Join(t.TempDir(), "absent.mpx"), 0, 0); err == nil {
		t.Fatal("calibrating a missing store did not error")
	}
}
