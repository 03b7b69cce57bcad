package main

import (
	"math"

	"metricprox/internal/core"
)

// systemSeed fixes every dataset and every server-side seed (landmark
// choice, NSW insertion order). The -seed flag drives the traffic only —
// which rows, queries and pairs are asked, and when — so runs with
// different seeds measure the same system under different traffic and
// their metrics compare.
const systemSeed = 1

// config is one workload run's shape. The seed is the only input knob:
// every workload generates its traffic from it.
type config struct {
	seed    int64
	seconds float64 // measured seconds per workload, split over the rounds
	rounds  int
	// clients is the number of closed-loop client goroutines. A run uses
	// one: with a single op in flight the process needs about one of the
	// reference machine's two vCPUs, whose availability swings from
	// moment to moment, and its times follow the code rather than the
	// scheduler. The smoke tests also run two.
	clients int
	toy     bool // tiny sizes, for the smoke test
}

// Toy sizes: every workload shrinks to toyN objects and toyOps ops.
const (
	toyN   = 64
	toyOps = 50
)

// opsFor sizes a round: the ops the reference machine completes in
// seconds/rounds at rate ops per second. The work is fixed, not the
// time, so counts such as oracle calls per op do not move with speed.
func (c *config) opsFor(rate float64) int {
	if c.toy {
		return toyOps
	}
	return max(1, int(math.Round(rate*c.seconds/float64(c.rounds))))
}

// size returns n, or toyN in a toy run.
func (c *config) size(n int) int {
	if c.toy {
		return toyN
	}
	return n
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// opLayer names the layer whose time the op's own span measures: the
	// prox builder for kNN ops, the benchmark's client codec otherwise.
	opLayer string
	// tree maps each span boundary the workload crosses to its parent.
	tree    map[kind]kind
	prepare func(cfg *config) (bench, error)
}

var workloads = []workload{
	{
		name:    "search-hot",
		why:     "read-only /search on a prebuilt graph with a cheap oracle: HTTP, JSON, handler and core read paths dominate; bypasses oracle, cachestore and proxclient mirror",
		opLayer: "proxload",
		tree:    map[kind]kind{kClientRT: kOp, kNode: kClientRT, kMetric: kNode},
		prepare: prepareSearchHot,
	},
	{
		name:    "knn-edit",
		why:     "remote kNN rows over an edit-distance oracle through a proxclient session: oracle calls and mirror round trips dominate, every resolution is a cachestore append",
		opLayer: "prox",
		tree:    map[kind]kind{kProxclient: kOp, kClientRT: kProxclient, kNode: kClientRT, kMetric: kNode},
		prepare: prepareKNNEdit,
	},
	{
		name:    "knn-inproc",
		why:     "in-process kNN rows on one SharedSession with no network: the Tri bound query dominates, with zero transport noise",
		opLayer: "prox",
		tree:    map[kind]kind{kView: kOp, kBounds: kOp, kMetric: kView},
		prepare: prepareKNNInproc,
	},
	{
		name:    "cluster-batch",
		why:     "64-op /batch requests through the router to a 3-node replicated cluster: fresh resolutions keep cachestore appends and replication busy",
		opLayer: "proxload",
		tree:    map[kind]kind{kClientRT: kOp, kRouter: kClientRT, kUpstreamRT: kRouter, kNode: kUpstreamRT, kMetric: kNode},
		prepare: prepareClusterBatch,
	},
}

// landmarkCount is the log2-n landmark default the service applies.
func landmarkCount(n int) int {
	k := 0
	for v := n; v > 1; v /= 2 {
		k++
	}
	return k
}

// coreLayers records the core.* per-layer metrics from a Stats delta.
func coreLayers(r *round, before, after core.Stats) {
	ops := float64(r.ops)
	hits := after.CacheHits - before.CacheHits
	saved := after.SavedComparisons - before.SavedComparisons
	cmps := hits + saved + after.ResolvedComparisons - before.ResolvedComparisons
	r.layer["core.comparisons_per_op"] = float64(cmps) / ops
	r.layer["core.bound_probes_per_op"] = float64(after.BoundProbes-before.BoundProbes) / ops
	if cmps > 0 {
		r.layer["core.saved_frac"] = float64(saved) / float64(cmps)
		r.layer["core.cache_hit_frac"] = float64(hits) / float64(cmps)
	}
}
