package bounds

// Hybrid composes a cheap bounder with a tight one: every query asks the
// cheap scheme first and escalates to the expensive scheme only when the
// cheap interval is wider than Gap. This is the natural middle ground the
// paper's Tri-vs-SPLUB trade-off suggests (DESIGN.md §9 lists it as an
// ablation): most comparisons are decided by triangles alone, and the
// Dijkstra-grade machinery only runs on the hard residue.
//
// The intersected interval is sound because both inputs are sound, and at
// least as tight as the cheap bounder's alone.
type Hybrid struct {
	Cheap Bounder
	Tight Bounder
	// Gap is the cheap-interval width above which the tight bounder is
	// consulted. 0 escalates every query; MaxDist never escalates.
	Gap float64
}

// NewHybrid returns a Hybrid bounder. Both inputs must be fed the same
// updates; when they share a partial graph (SPLUB and Tri do), Update's
// forwarding is naturally idempotent.
func NewHybrid(cheap, tight Bounder, gap float64) *Hybrid {
	return &Hybrid{Cheap: cheap, Tight: tight, Gap: gap}
}

// Name returns "hybrid(cheap+tight)".
func (h *Hybrid) Name() string {
	return "hybrid(" + h.Cheap.Name() + "+" + h.Tight.Name() + ")"
}

// Update forwards to both bounders.
func (h *Hybrid) Update(i, j int, d float64) {
	h.Cheap.Update(i, j, d)
	h.Tight.Update(i, j, d)
}

// Bounds asks the cheap bounder, escalating when its interval is loose.
func (h *Hybrid) Bounds(i, j int) (float64, float64) {
	if i == j {
		// Self-distances are identically 0; never an escalation.
		return 0, 0
	}
	lb, ub := h.Cheap.Bounds(i, j)
	if ub-lb <= h.Gap {
		return lb, ub
	}
	lb2, ub2 := h.Tight.Bounds(i, j)
	if lb2 > lb {
		lb = lb2
	}
	if ub2 < ub {
		ub = ub2
	}
	if lb > ub {
		lb = ub // rounding guard, mirrors clamp
	}
	return lb, ub
}
