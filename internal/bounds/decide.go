package bounds

// DecideLess is the interval-decision kernel behind every re-authored IF:
// given sound intervals lb1 ≤ d1 ≤ ub1 and lb2 ≤ d2 ≤ ub2, it settles
// d1 < d2 when the intervals cannot overlap and reports decided = false
// otherwise. Touching endpoints are asymmetric: ub1 == lb2 leaves d1 == d2
// possible and stays undecided, while lb1 == ub2 forces d1 ≥ d2 and
// decides "not less". The verdict comes from endpoint comparisons alone,
// with no arithmetic, so any two callers holding the same intervals reach
// bit-identical verdicts.
func DecideLess(lb1, ub1, lb2, ub2 float64) (less, decided bool) {
	if ub1 < lb2 {
		return true, true
	}
	if lb1 >= ub2 {
		return false, true
	}
	return false, false
}

// DecideLessThan settles d < c from lb ≤ d ≤ ub. A constant is a collapsed
// interval, so this is DecideLess(lb, ub, c, c); c = +Inf (an unset key)
// decides "less" for every finite ub.
func DecideLessThan(lb, ub, c float64) (less, decided bool) {
	return DecideLess(lb, ub, c, c)
}
