package faurelog

// Cost-guided join planning.
//
// The join (eval.go) evaluates a rule body left to right and probes at
// most one indexed column per literal, so a rule run in written order
// with its fattest relation first degrades to a near-cross-product.
// The planner greedily reorders the positive body literals by their
// estimated candidate count under sideways information passing — pick
// the cheapest literal given the variables bound so far, bind its
// variables, repeat — using the store's O(1) per-column statistics
// (relstore.ColStats). The delta literal of a semi-naive round stays
// pinned first: its tuples are an in-memory slice, and every other
// literal benefits from the variables it binds.
//
// Determinism argument. The plan is a deterministic function of the
// round's frozen store snapshot: the statistics it reads (relation
// sizes, per-column distinct counts and c-variable counts) only change
// at round barriers, and ties keep the lowest slot. deriveRule permutes
// the positive literals into the planned order (negations stay last)
// and the one streaming join (join/try/matchAtom/candidateIdxs) runs
// the permuted body, so two evaluations of the same program over the
// same database produce the same tables, conditions and row order.
//
// Equivalence to written order. fauré-log's valuation maps every
// program variable onto the c-domain, so joining the body literals in
// any order yields an equivalent c-table: the same tuples in every
// possible world (the paper's §4 loss-less modelling). A reordered
// rule may bind a variable first to a constant where written order
// bound it to a c-variable (or the reverse); its head data and
// conditions then differ syntactically, never semantically. A rule the
// planner leaves in written order runs exactly as written.

// planPositives greedily orders the canonical rule's first nPos body
// literals (the positives) by estimated cost. deltaIdx is 0 when slot
// 0 is the fed delta literal (then it stays pinned) and -1 otherwise.
// It returns the canonical slot indexes in execution order and whether
// that differs from the written order. Ties keep the lowest slot, so
// the plan is deterministic for a given frozen store.
func (e *engine) planPositives(canon *crule, deltaIdx, nPos int) ([]int, bool) {
	order := make([]int, 0, nPos)
	bound := make([]bool, canon.nvars)
	used := make([]bool, nPos)
	take := func(slot int) {
		used[slot] = true
		order = append(order, slot)
		for _, t := range canon.body[slot].args {
			if t.kind == TVar {
				bound[t.slot] = true
			}
		}
	}
	if deltaIdx == 0 {
		take(0)
	}
	for len(order) < nPos {
		best, bestCost := -1, 0.0
		for s := 0; s < nPos; s++ {
			if used[s] {
				continue
			}
			c := e.estimateLiteral(&canon.body[s], bound)
			if best < 0 || c < bestCost {
				best, bestCost = s, c
			}
		}
		take(best)
	}
	for i, s := range order {
		if s != i {
			return order, true
		}
	}
	return order, false
}

// estimateLiteral estimates how many candidate tuples the store serves
// for one positive literal given the variable slots bound so far: the
// relation size scaled by the selectivity of every constant-bound
// column, multiplied under an independence assumption. Per column, the
// expected candidates are the average constant bucket plus every
// c-variable tuple (which survives any probe); see ColStats.
func (e *engine) estimateLiteral(a *catom, bound []bool) float64 {
	rel := e.store.Rel(a.Pred)
	if rel == nil || rel.Len() == 0 {
		return 0
	}
	n := rel.Len()
	cost := float64(n)
	for col, t := range a.args {
		switch t.kind {
		case TConst:
		case TVar:
			if !bound[t.slot] {
				continue
			}
		default:
			continue
		}
		cost *= rel.ColStats(col).EstCandidates(n) / float64(n)
	}
	return cost
}
