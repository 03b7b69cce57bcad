package cachestore

import (
	"fmt"
	"os"
	"sort"

	"metricprox/internal/lp"
)

// CalibrateReport summarises one offline calibration pass.
type CalibrateReport struct {
	// Records is the number of distinct pairs the store held (replay keeps
	// the first occurrence of a duplicated pair, matching load semantics).
	Records int
	// Triangles is the number of point triples with all three pairwise
	// distances cached — the constraint set the projection enforced.
	Triangles int
	// MarginBefore and MarginAfter are the worst additive triangle
	// violations measured over those triangles before and after repair.
	MarginBefore, MarginAfter float64
	// Iterations is the number of projection sweeps performed.
	Iterations int
}

// Calibrate repairs a cached distance set in place: it loads every record
// from the store at path, finds all triangles whose three sides are all
// cached, projects the distances onto the metric polytope with the HLWB
// scheme in internal/lp (nearest-repair semantics: small targeted edits),
// and atomically rewrites the store with the calibrated values.
//
// The rewrite goes through path+".tmp" followed by os.Rename, so a crash
// mid-calibration leaves the original store untouched. Pairs that close
// no fully-cached triangle are copied through unchanged. tol ≤ 0 defaults
// to 1e-9; maxIter ≤ 0 defaults to 10000.
//
// This is the repair arm of the near-metric subsystem: detection
// (metric.Auditor) tells you the cache is inconsistent, ε-slack keeps
// queries sound meanwhile, and Calibrate removes the measured margin so
// future sessions can drop the slack.
func Calibrate(path string, tol float64, maxIter int) (CalibrateReport, error) {
	var rep CalibrateReport
	st, err := Open(path)
	if err != nil {
		return rep, err
	}
	n := st.N()

	// Load the distinct pairs in append order (first occurrence wins,
	// mirroring what a session replaying this store would see).
	idx := make(map[pair]int)
	var pairs []pair
	var x []float64
	replayErr := st.Replay(func(r Record) bool {
		p := pair{r.I, r.J}
		if p.i > p.j {
			p.i, p.j = p.j, p.i
		}
		if _, dup := idx[p]; dup {
			return true
		}
		idx[p] = len(x)
		pairs = append(pairs, p)
		x = append(x, r.Dist)
		return true
	})
	if replayErr != nil {
		st.Close()
		return rep, replayErr
	}
	if err := st.Close(); err != nil {
		return rep, err
	}
	rep.Records = len(pairs)

	// Enumerate fully-cached triangles via sorted adjacency intersection:
	// for each cached pair (i, j), every k adjacent to both closes one.
	// Restricting to k > j counts each triple exactly once.
	adj := make([][]int, n)
	for _, p := range pairs {
		adj[p.i] = append(adj[p.i], p.j)
		adj[p.j] = append(adj[p.j], p.i)
	}
	for i := range adj {
		sort.Ints(adj[i])
	}
	var tris [][3]int
	for _, p := range pairs {
		ai, aj := adj[p.i], adj[p.j]
		for a, b := 0, 0; a < len(ai) && b < len(aj); {
			switch {
			case ai[a] < aj[b]:
				a++
			case ai[a] > aj[b]:
				b++
			default:
				if k := ai[a]; k > p.j {
					tris = append(tris, [3]int{
						idx[pair{p.i, p.j}],
						idx[orderedPair(p.i, k)],
						idx[orderedPair(k, p.j)],
					})
				}
				a++
				b++
			}
		}
	}
	rep.Triangles = len(tris)
	rep.MarginBefore = lp.MaxTriangleViolation(x, tris)

	res := lp.ProjectTriangles(x, tris, maxIter, tol)
	rep.MarginAfter = res.MaxViolation
	rep.Iterations = res.Iterations

	// Atomic rewrite: build the calibrated store beside the original and
	// rename over it only once fully synced.
	tmp := path + ".tmp"
	out, err := Create(tmp, n)
	if err != nil {
		return rep, err
	}
	recs := make([]Record, len(pairs))
	for q, p := range pairs {
		recs[q] = Record{I: p.i, J: p.j, Dist: x[q]}
	}
	if _, err := out.Append(recs...); err != nil {
		out.Close()
		os.Remove(tmp)
		return rep, fmt.Errorf("cachestore: calibrate rewrite: %w", err)
	}
	if err := out.Close(); err != nil {
		os.Remove(tmp)
		return rep, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return rep, err
	}
	return rep, nil
}

type pair struct{ i, j int }

func orderedPair(i, j int) pair {
	if i > j {
		i, j = j, i
	}
	return pair{i, j}
}
