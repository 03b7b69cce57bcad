package pgraph

// flatStore is the CSR-style flat adjacency layout behind Graph: every
// node's neighbour list lives as a sorted (neighbour, weight) run inside
// two shared slabs, replacing the former red–black-tree-per-node layout.
//
// Why flat: the Tri Scheme's bound query is a sorted merge of two
// adjacency lists, and on the service hot path that merge runs millions of
// times per second. A balanced BST pays a pointer dereference, an
// iterator-stack push/pop, and (in Go) iterator allocations per visited
// neighbour; a sorted slice run pays one predictable sequential read. The
// paper's O(log n)-insert argument for the BST still holds asymptotically,
// but the constant factors on query — the factor every proximity algorithm
// multiplies (Theorem 4.2) — favour the flat layout by a wide margin.
//
// Layout and growth:
//
//   - rows[u] names u's run: offset into the slabs, live length, and
//     reserved capacity. Runs are kept sorted by neighbour id.
//   - An insert into a full run relocates it to fresh space at the slab
//     tail with doubled capacity (epoch-based growth: the epoch counter
//     advances on every relocation, so stale row views are detectable).
//     The abandoned cells become garbage, which is never reclaimed.
//     Relocation is O(deg) and doubling makes its amortized cost O(1) per
//     insert.
//   - Doubling also bounds the garbage: a row's relocation from capacity
//     c abandons c cells and reserves 2c, and its first allocation
//     reserves minRowCap cells and abandons none, so every row's dead
//     cells stay below half of all the cells it ever reserved, and
//     Dead ≤ Slab/2 for the whole store.
//
// Sorted-insert costs O(deg) memmove instead of the tree's O(log deg)
// pointer surgery, but the partial graph's expected degree is m/n (the
// same figure Theorem 4.2's query bound rests on) and a memmove of a few
// cache lines is cheaper than rebalancing in practice; the bench-smoke CI
// job pins the end-to-end win.
//
// flatStore is not safe for concurrent mutation; Graph's owner (the
// Session lock) serialises writers, matching the previous layout's
// contract.
type flatStore struct {
	rows  []rowRef
	nbr   []int32
	wt    []float64
	live  int    // cells referenced by live runs (sum of rows[].len)
	dead  int    // cells abandoned by relocations, never reclaimed
	epoch uint64 // advanced on every relocation
}

// rowRef names one node's run inside the slabs.
type rowRef struct {
	off int32 // first cell of the run
	len int32 // live cells
	cap int32 // reserved cells (len <= cap)
}

// minRowCap is the capacity a row receives on its first insert. Four
// cells cover the long tail of low-degree nodes without a relocation.
const minRowCap = 4

// newFlatStore returns an empty store over n nodes.
func newFlatStore(n int) *flatStore {
	return &flatStore{rows: make([]rowRef, n)}
}

// degree returns the number of neighbours of u.
func (f *flatStore) degree(u int) int { return int(f.rows[u].len) }

// row returns u's sorted neighbour ids and the matching weights. The
// slices alias the store's slabs: they are valid until the next insert
// (watch epoch to detect a relocation) and must not be modified.
func (f *flatStore) row(u int) ([]int32, []float64) {
	r := f.rows[u]
	return f.nbr[r.off : r.off+r.len : r.off+r.len], f.wt[r.off : r.off+r.len : r.off+r.len]
}

// get returns the weight stored under neighbour v of u.
func (f *flatStore) get(u, v int) (float64, bool) {
	nb, ws := f.row(u)
	if i, ok := searchInt32(nb, int32(v)); ok {
		return ws[i], true
	}
	return 0, false
}

// searchInt32 binary-searches a sorted run for key, returning its index
// or the insertion point.
func searchInt32(s []int32, key int32) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == key
}

// insert records neighbour v of u with weight w, keeping the run sorted.
// The caller (Graph.AddEdge) guarantees v is not already present.
func (f *flatStore) insert(u, v int, w float64) {
	r := &f.rows[u]
	if r.len == r.cap {
		f.relocate(u)
		r = &f.rows[u]
	}
	nb := f.nbr[r.off : r.off+r.len]
	pos, _ := searchInt32(nb, int32(v))
	// Shift the tail one cell right inside the reserved capacity.
	base := int(r.off)
	copy(f.nbr[base+pos+1:base+int(r.len)+1], f.nbr[base+pos:base+int(r.len)])
	copy(f.wt[base+pos+1:base+int(r.len)+1], f.wt[base+pos:base+int(r.len)])
	f.nbr[base+pos] = int32(v)
	f.wt[base+pos] = w
	r.len++
	f.live++
}

// relocate moves u's run to fresh slab space with doubled capacity,
// abandoning the old cells.
func (f *flatStore) relocate(u int) {
	r := f.rows[u]
	newCap := int32(minRowCap)
	if r.cap > 0 {
		newCap = r.cap * 2
	}
	off := int32(len(f.nbr))
	f.nbr = append(f.nbr, make([]int32, newCap)...)
	f.wt = append(f.wt, make([]float64, newCap)...)
	copy(f.nbr[off:off+r.len], f.nbr[r.off:r.off+r.len])
	copy(f.wt[off:off+r.len], f.wt[r.off:r.off+r.len])
	f.rows[u] = rowRef{off: off, len: r.len, cap: newCap}
	f.dead += int(r.cap)
	f.epoch++
}

// StoreStats reports the flat store's occupancy for benchmarks, tests,
// and capacity planning.
type StoreStats struct {
	// Live is the number of adjacency cells referenced by live rows
	// (2·M for an undirected partial graph).
	Live int
	// Slab is the total slab size in cells, including reserved headroom
	// and garbage.
	Slab int
	// Dead is the number of garbage cells left behind by row relocations.
	// Nothing reclaims them; capacity doubling keeps Dead ≤ Slab/2.
	Dead int
	// Epoch counts row relocations since creation; row views obtained
	// before a relocation may alias stale memory.
	Epoch uint64
}

// stats snapshots the store's occupancy.
func (f *flatStore) stats() StoreStats {
	return StoreStats{Live: f.live, Slab: len(f.nbr), Dead: f.dead, Epoch: f.epoch}
}
