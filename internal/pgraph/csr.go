package pgraph

// Row storage. Every node owns its row: a []int32 of neighbour ids in
// strictly ascending order and a []float64 of the matching weights, of
// equal length and equal capacity. The ids' slice headers and the
// weights' live in separate arrays (Graph.ids, Graph.wts), so Degree and
// Weight's search read only the ids' headers.
//
// Why sorted slices: the Tri Scheme's bound query intersects two rows,
// and on the service hot path that runs millions of times per second. A
// balanced BST pays a pointer dereference, an iterator-stack push/pop,
// and (in Go) iterator allocations per visited neighbour; a sorted slice
// pays one predictable sequential read. The paper's O(log n)-insert
// argument for the BST still holds asymptotically, but the constant
// factors on query — the factor every proximity algorithm multiplies
// (Theorem 4.2) — favour the slices by a wide margin. A sorted insert
// costs an O(deg) memmove instead of the tree's O(log deg) pointer
// surgery, but the partial graph's expected degree is m/n (the figure
// Theorem 4.2's query bound rests on) and a memmove of a few cache lines
// is cheaper than rebalancing.
//
// Growth: an insert into a full row moves it to fresh slices of twice
// its length (minRowCap on its first insert) and counts the move in
// epoch. The old slices become garbage for the Go runtime to reclaim
// once no borrowed view holds them. Doubling makes a move's O(deg) copy
// amortised O(1) per insert and keeps each row's capacity at most
// max(minRowCap, 2·len − 2).
//
// The rows are not safe for concurrent mutation; Graph's owner (the
// Session lock) serialises writers.

// minRowCap is the capacity a row receives on its first insert. Four
// cells cover the long tail of low-degree nodes without a move.
const minRowCap = 4

// searchInt32 binary-searches a sorted row for key, returning its index
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

// insert records neighbour v of u with weight w, keeping the row sorted.
// The caller (Graph.AddEdge) guarantees v is not already present.
func (g *Graph) insert(u, v int, w float64) {
	ids, wts := g.ids[u], g.wts[u]
	n := len(ids)
	if n == cap(ids) {
		c := max(2*n, minRowCap)
		ids = append(make([]int32, 0, c), ids...)
		wts = append(make([]float64, 0, c), wts...)
		g.epoch++
	}
	pos, _ := searchInt32(ids, int32(v))
	ids, wts = ids[:n+1], wts[:n+1]
	copy(ids[pos+1:], ids[pos:n])
	copy(wts[pos+1:], wts[pos:n])
	ids[pos], wts[pos] = int32(v), w
	g.ids[u], g.wts[u] = ids, wts
	g.live++
}

// StoreStats reports the rows' occupancy for benchmarks and tests.
type StoreStats struct {
	// Live is the number of adjacency cells held by the rows (2·M for an
	// undirected partial graph).
	Live int
	// Epoch counts row moves since creation, a row's first allocation
	// included; row views obtained before a move alias the row's old
	// slices.
	Epoch uint64
}
