package bounds

// Bounder produces lower and upper bounds on unknown distances from the
// distances resolved so far. Implementations must be *sound*: for every
// pair, lb ≤ true distance ≤ ub under any metric consistent with the
// updates seen. They need not be tight.
type Bounder interface {
	// Name identifies the scheme in experiment reports.
	Name() string
	// Bounds returns current lower and upper bounds on dist(i, j).
	Bounds(i, j int) (lb, ub float64)
	// Update ingests a freshly resolved distance (the UPDATE PROBLEM).
	// The Session guarantees each unordered pair is reported once.
	Update(i, j int, d float64)
}

// BatchBounder is an optional Bounder extension for schemes that can
// answer many bound queries in one pass over their internal state. The
// canonical implementation is Tri, whose flat-row layout lets a run of
// pairs sharing an anchor (first) object stamp the anchor's adjacency
// row once for the whole run, and answer a long run by streaming each of
// the anchor's neighbour rows once instead of one row per pair. Pairs
// are answered in input order, so a caller that wants the saving emits
// its pairs anchor-contiguous.
// BoundsBatch must write, for every x, exactly the interval
// Bounds(is[x], js[x]) would return — batching is a cost optimisation,
// never a semantic one; all four slices must share a length.
type BatchBounder interface {
	Bounder
	// BoundsBatch answers pair (is[x], js[x]) into lb[x], ub[x] and
	// returns the number of derived pairs: those that are neither
	// self-pairs nor already resolved, i.e. the pairs a per-pair loop
	// would have taken to the scheme's bound computation.
	BoundsBatch(is, js []int, lb, ub []float64) int
}

// Comparator resolves distance comparisons directly, without going through
// explicit bounds. Implemented by DFT. All Prove* methods are one-sided:
// returning false means "could not prove", never "disproved".
type Comparator interface {
	// ProveLess reports whether dist(i,j) < dist(k,l) is certain.
	ProveLess(i, j, k, l int) bool
	// ProveLessC reports whether dist(i,j) < c is certain.
	ProveLessC(i, j int, c float64) bool
	// ProveGEC reports whether dist(i,j) ≥ c is certain.
	ProveGEC(i, j int, c float64) bool
}

// Bootstrapper is implemented by bound schemes that drive their own
// initialisation (e.g. TLAESA's pivot-tree construction, which spends
// extra oracle calls beyond the landmark rows). resolve must route through
// the Session so every call is counted and fed back via Update.
type Bootstrapper interface {
	Bootstrap(resolve func(i, j int) float64, landmarks []int)
}

// Noop is the bounder of the unmodified algorithm: it knows nothing.
type Noop struct {
	// MaxDist is the a-priori upper bound on any distance (1 in the
	// paper's normalised setting). Zero means 1.
	MaxDist float64
}

// NewNoop returns a Noop bounder with the given maximum distance.
func NewNoop(maxDist float64) *Noop { return &Noop{MaxDist: maxDist} }

// Name returns "noop".
func (nb *Noop) Name() string { return "noop" }

// Bounds returns the trivial bounds (0, MaxDist).
func (nb *Noop) Bounds(i, j int) (float64, float64) {
	if nb.MaxDist == 0 {
		return 0, 1
	}
	return 0, nb.MaxDist
}

// Update is a no-op.
func (nb *Noop) Update(i, j int, d float64) {}

// clamp narrows (lb, ub) into [0, maxDist] and repairs tiny floating-point
// inversions where lb exceeds ub by a rounding error.
func clamp(lb, ub, maxDist float64) (float64, float64) {
	if lb < 0 {
		lb = 0
	}
	if ub > maxDist {
		ub = maxDist
	}
	if lb > ub {
		// Rounding artefact: collapse the interval onto ub.
		lb = ub
	}
	return lb, ub
}
