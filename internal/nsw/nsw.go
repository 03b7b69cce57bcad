package nsw

import (
	"fmt"
	"math/rand"
	"slices"

	"metricprox/internal/core"
	"metricprox/internal/prox"
)

// Default builder parameters, applied by Params.WithDefaults and shared
// with the service's /search endpoint so a client that omits the knobs
// gets the same graph the server documents.
const (
	// DefaultM is the default number of links added per inserted node.
	DefaultM = 8
	// DefaultEfConstruction is the default insertion beam width.
	DefaultEfConstruction = 64
	// maxDegreeFactor caps a node's adjacency at maxDegreeFactor·M before
	// the list is shrunk back to the M canonically closest neighbours.
	maxDegreeFactor = 2
)

// Params parameterises a build. The zero value is usable: WithDefaults
// fills M and EfConstruction, and Seed 0 is a valid (deterministic)
// seed.
type Params struct {
	// M is the number of links added per inserted node; a node's list may
	// transiently grow to 2·M through reverse links before it is shrunk
	// back to the M closest. 0 means DefaultM.
	M int
	// EfConstruction is the beam width of the insertion-time search;
	// larger values discover better neighbours at more comparisons.
	// 0 means DefaultEfConstruction.
	EfConstruction int
	// Seed drives the insertion order (a seeded permutation of the
	// universe) and thereby the entry point — the first inserted node.
	// The whole build is a pure function of (distances, Params), so equal
	// seeds give byte-identical graphs.
	Seed int64
	// Landmarks, when non-empty, seeds every beam search (insertion and
	// query) with the already-inserted landmarks in addition to the entry
	// point, so the beam starts next to the query instead of navigating
	// in from a global entry. On a session bootstrapped on the same
	// landmarks the seeding distances are cache hits — the IF already
	// holds every d(landmark, ·) row — which is what makes the seeded
	// build dramatically cheaper in oracle calls than a naive one (see
	// ext13). Nil gives the classic single-entry NSW. The list is part of
	// the build's identity: equal (distances, Params) give byte-identical
	// graphs.
	Landmarks []int
}

// Equal reports whether two Params describe the same build. Params is
// not ==-comparable (Landmarks is a slice); this is the comparison the
// service uses to refuse conflicting /search requests.
func (p Params) Equal(o Params) bool {
	return p.M == o.M && p.EfConstruction == o.EfConstruction &&
		p.Seed == o.Seed && slices.Equal(p.Landmarks, o.Landmarks)
}

// WithDefaults returns p with zero knobs replaced by the package
// defaults.
func (p Params) WithDefaults() Params {
	if p.M <= 0 {
		p.M = DefaultM
	}
	if p.EfConstruction <= 0 {
		p.EfConstruction = DefaultEfConstruction
	}
	if p.EfConstruction < p.M {
		// A beam narrower than M cannot supply M link candidates.
		p.EfConstruction = p.M
	}
	return p
}

// Graph is a built navigable-small-world graph: a directed adjacency
// over the view's universe whose edges carry the exact distances that
// were resolved when they were committed. It is immutable after Build
// and safe for concurrent Search calls.
type Graph struct {
	params   Params
	n        int
	entry    int
	inserted int
	order    []int
	adj      [][]prox.Neighbor
	// present[u] reports whether u's insert has committed — the seeding
	// logic may only start a beam from landmarks already in the graph.
	present []bool
}

// BuildError reports a build aborted by an oracle failure. The graph
// returned alongside it holds the committed prefix: every node whose
// insert completed before the failure, fully linked; the failed node and
// everything after it in the insertion order are absent. Unwrap exposes
// the cause (which wraps core.ErrOracleUnavailable for resolution
// failures), so errors.Is works through it.
type BuildError struct {
	// Inserted is the number of fully committed nodes.
	Inserted int
	// Node is the object whose insert failed.
	Node int
	// Err is the underlying resolution failure.
	Err error
}

// Error formats the abort with its committed-prefix size.
func (e *BuildError) Error() string {
	return fmt.Sprintf("nsw: build aborted inserting node %d (%d nodes committed): %v", e.Node, e.Inserted, e.Err)
}

// Unwrap exposes the underlying resolution failure.
func (e *BuildError) Unwrap() error { return e.Err }

// Build constructs the graph over every object of v, inserting in the
// seeded order and linking each node to the M closest discoveries of an
// efConstruction-wide beam search. All distance comparisons go through
// v's re-authored IF surface (DistIfLess), so the view's bound scheme
// prunes them; the resulting graph is identical across schemes.
//
// On an oracle failure the returned graph is the committed prefix and
// the error is a *BuildError wrapping the cause (never nil graph): the
// caller can serve the partial structure, retry the build, or discard
// it, but it never observes a half-linked node.
func Build(v core.View, p Params) (*Graph, error) {
	p = p.WithDefaults()
	n := v.N()
	g := &Graph{
		params:  p,
		n:       n,
		entry:   -1,
		order:   rand.New(rand.NewSource(p.Seed)).Perm(n),
		adj:     make([][]prox.Neighbor, n),
		present: make([]bool, n),
	}
	sc := scratchPool.Get().(*searchScratch)
	defer scratchPool.Put(sc)
	for idx, u := range g.order {
		if idx == 0 {
			g.entry = u
			g.present[u] = true
			g.inserted = 1
			continue
		}
		// Search first, mutate after: the beam search pays all the oracle
		// calls of this insert, so an abort here leaves the graph exactly
		// as the previous insert committed it.
		found, err := g.searchLayer(sc, v, u, p.EfConstruction, -1)
		if err != nil {
			return g, &BuildError{Inserted: g.inserted, Node: u, Err: err}
		}
		g.commit(u, found)
		g.present[u] = true
		g.inserted++
	}
	return g, nil
}

// commit links u to the min(M, len(found)) canonically closest
// discoveries (copying them: found is search scratch) and adds the
// reverse links, shrinking any adjacency that grows past 2·M back to its
// M closest entries. It performs no oracle calls: every distance it
// handles was resolved by the beam search that produced found (or by the
// search that committed the edge originally), which is what makes an
// insert atomic from the oracle's point of view.
func (g *Graph) commit(u int, found []prox.Neighbor) {
	m := g.params.M
	if m > len(found) {
		m = len(found)
	}
	links := found[:m]
	g.adj[u] = append(g.adj[u], links...)
	for _, nb := range links {
		g.adj[nb.ID] = append(g.adj[nb.ID], prox.Neighbor{ID: u, Dist: nb.Dist})
		if len(g.adj[nb.ID]) > maxDegreeFactor*g.params.M {
			prox.SortNeighbors(g.adj[nb.ID])
			g.adj[nb.ID] = g.adj[nb.ID][:g.params.M]
		}
	}
	// Adjacency is kept in canonical (distance, id) order so traversal —
	// and therefore the whole build — is deterministic.
	prox.SortNeighbors(g.adj[u])
	for _, nb := range links {
		prox.SortNeighbors(g.adj[nb.ID])
	}
}

// Params returns the parameters the graph was built with (defaults
// applied).
func (g *Graph) Params() Params { return g.params }

// N returns the universe size the graph was built over.
func (g *Graph) N() int { return g.n }

// Inserted returns the number of committed nodes — N() for a complete
// build, fewer for the committed prefix of an aborted one.
func (g *Graph) Inserted() int { return g.inserted }

// Entry returns the search entry point (the first inserted node), or -1
// for an empty graph.
func (g *Graph) Entry() int { return g.entry }

// Order returns the seeded insertion order; only the first Inserted()
// entries are in the graph. The slice is shared — callers must not
// mutate it.
func (g *Graph) Order() []int { return g.order }

// Neighbors returns u's adjacency in canonical (distance, id) order.
// The slice is shared — callers must not mutate it.
func (g *Graph) Neighbors(u int) []prox.Neighbor { return g.adj[u] }

// Edges returns the number of directed edges in the graph.
func (g *Graph) Edges() int {
	total := 0
	for _, row := range g.adj {
		total += len(row)
	}
	return total
}
