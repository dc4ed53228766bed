package faurelog

// Cost-guided join planning.
//
// The written-order join (eval.go) evaluates a rule body left to right
// and probes at most one indexed column per literal, so a rule written
// with its fattest relation first degrades to a near-cross-product.
// The planner greedily reorders the positive body literals by their
// estimated candidate count under sideways information passing — pick
// the cheapest literal given the variables bound so far, bind its
// variables, repeat — using the store's O(1) per-column statistics
// (relstore.ColStats). The delta literal of a semi-naive round stays
// pinned first: its tuples are an in-memory slice, and every other
// literal benefits from the variables it binds.
//
// Determinism argument. The evaluation's observable output — table
// contents, conditions, row order, Explain traces — depends on the
// ORDER emissions reach the commit path: dedup keeps the first
// occurrence, absorption compares each condition against the ones
// committed before it, and row order is insertion order. The planner
// therefore never streams matches in plan order. Instead the planned
// executor:
//
//  1. discovers complete positive matches depth-first in plan order,
//     using multi-column index intersection (CandidatesMulti) and a
//     formula-free matcher (matchLite) that only binds variables and
//     rejects constant/constant conflicts;
//  2. replays each match in the written (canonical) order — rebuilding
//     bindings, equality conditions and negation conditions exactly as
//     the written-order join would, and dropping combinations that the
//     written-order matcher rejects (a variable claimed by two
//     different constants: such a combination is emitted by neither
//     executor with a satisfiable condition);
//  3. sorts the replayed emissions by a key that encodes, per literal,
//     the position the written-order join would have visited the
//     matched tuple at — the delta slice position for the fed literal,
//     and (cvar-bucket bit, store index) for store literals, mirroring
//     Candidates' constants-then-cvars enumeration — and only then
//     hands them to emit.
//
// The emission sequence is thus exactly the written-order sequence,
// minus combinations whose condition is syntactically contradictory
// (written-order emits them, the eager prune or the final prune drops
// them, and they can never absorb or outlive a satisfiable tuple), so
// final tables, dumps and verdicts are bit-for-bit identical with the
// planner on or off. Only speculative-work
// counters (pruned, sat calls, probes) may differ.

import (
	"slices"
	"sort"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/relstore"
)

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

// plannedMatch records, for one canonical slot, the tuple the
// discovery join matched there and its order-key material: the store
// index, or the delta slice position for the fed literal.
type plannedMatch struct {
	tp  ctable.Tuple
	idx int
}

// plannedEmit is one replayed match awaiting written-order sorting.
type plannedEmit struct {
	key   []uint64
	vals  []cond.Term
	conds []*cond.Formula
	srcs  []Source
}

// groupShift places Candidates' constants-vs-cvars bucket bit above
// any realistic store index in the per-slot order key.
const groupShift = 40

// runPlanned executes the rule application under the planned literal
// order: discovery in plan order, replay and emission in written order
// (see the package comment's determinism argument). x.r is the
// canonicalised rule (delta literal at slot 0 when x.deltaIdx == 0,
// positives before negations), order the planned permutation of the
// first nPos slots.
func (x *app) runPlanned(order []int, nPos int) error {
	e, canon := x.e, x.r
	matched := make([]plannedMatch, nPos)
	var buf []plannedEmit
	// The replay rebinds from scratch in written order, in its own
	// binding; each buffered emission keeps a copy of its slot values.
	rb := newBinding(canon.nvars)

	replay := func() error {
		rb.undo(0)
		conds := x.newConds()
		var srcs []Source
		if e.needSrcs {
			srcs = make([]Source, 0, len(canon.body))
		}
		key := make([]uint64, nPos)
		for slot := 0; slot < nPos; slot++ {
			a := &canon.body[slot]
			m := matched[slot]
			if slot == 0 && x.deltaIdx == 0 {
				key[slot] = uint64(m.idx)
			} else {
				var g uint64
				if col := e.noPlanProbeCol(a, rb); col >= 0 && m.tp.Values[col].IsCVar() {
					g = 1
				}
				key[slot] = g<<groupShift | uint64(m.idx)
			}
			extra, ok := matchAtom(a, m.tp, rb)
			if !ok {
				// The written-order matcher rejects this combination (two
				// constants claimed the same variable); neither executor
				// may emit it.
				return nil
			}
			conds = append(conds, m.tp.Condition())
			if !extra.IsTrue() {
				conds = append(conds, extra)
			}
			if e.needSrcs {
				srcs = append(srcs, Source{Pred: a.Pred, Tuple: m.tp})
			}
		}
		for i := nPos; i < len(canon.body); i++ {
			a := &canon.body[i]
			f, pattern, err := e.negationCondition(a, rb)
			if err != nil {
				return err
			}
			if f.IsFalse() {
				return nil
			}
			if e.needSrcs {
				srcs = append(srcs, Source{Pred: a.Pred, Tuple: ctable.NewTuple(pattern, f), Negated: true})
			}
			conds = append(conds, f)
		}
		buf = append(buf, plannedEmit{key: key, vals: slices.Clone(rb.vals), conds: conds, srcs: srcs})
		return nil
	}

	var dfs func(k int) error
	dfs = func(k int) error {
		if k == nPos {
			return replay()
		}
		slot := order[k]
		a := &canon.body[slot]
		try := func(tp ctable.Tuple, idx int) error {
			mark := x.b.mark()
			if !matchLite(a, tp, x.b) {
				return nil
			}
			matched[slot] = plannedMatch{tp: tp, idx: idx}
			err := dfs(k + 1)
			x.b.undo(mark)
			return err
		}
		if slot == 0 && x.deltaIdx == 0 {
			for pos, tp := range x.delta {
				if err := try(tp, pos); err != nil {
					return err
				}
			}
			return nil
		}
		rel := e.store.Rel(a.Pred)
		if rel == nil {
			return nil
		}
		for _, idx := range e.plannedCandidates(rel, a, x.b) {
			if err := try(rel.Tuple(idx), idx); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dfs(0); err != nil {
		return err
	}

	sort.SliceStable(buf, func(i, j int) bool {
		a, b := buf[i].key, buf[j].key
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	for i := range buf {
		if err := x.emit(canon, buf[i].vals, buf[i].conds, buf[i].srcs); err != nil {
			return err
		}
	}
	return nil
}

// plannedCandidates narrows the tuples for one literal during planned
// discovery, intersecting the candidate lists of every constant-bound
// column. Unlike the written-order candidateIdxs, the result order
// does not matter here: the replay sort restores written order.
func (e *engine) plannedCandidates(rel *relstore.Relation, a *catom, b *binding) []int {
	if e.opts.NoIndex {
		return rel.All()
	}
	var colBuf [8]int
	var keyBuf [8]cond.Term
	cols, keys := colBuf[:0], keyBuf[:0]
	for col, t := range a.args {
		switch t.kind {
		case TConst:
			cols = append(cols, col)
			keys = append(keys, t.sym)
		case TVar:
			if b.bound[t.slot] && !b.vals[t.slot].IsCVar() {
				cols = append(cols, col)
				keys = append(keys, b.vals[t.slot])
			}
		}
	}
	switch len(cols) {
	case 0:
		return rel.All()
	case 1:
		return rel.Candidates(cols[0], keys[0])
	default:
		return rel.CandidatesMulti(cols, keys)
	}
}

// noPlanProbeCol is the column the written-order join's candidateIdxs
// would probe for this literal under the given bindings, or -1 for a
// full scan — the same first-usable-column rule, evaluated against the
// canonical binding state the replay maintains.
func (e *engine) noPlanProbeCol(a *catom, b *binding) int {
	if e.opts.NoIndex {
		return -1
	}
	for col, t := range a.args {
		switch t.kind {
		case TConst:
			return col
		case TVar:
			if b.bound[t.slot] && !b.vals[t.slot].IsCVar() {
				return col
			}
		}
	}
	return -1
}

// matchLite is the discovery-time matcher: it binds variables and
// rejects syntactically impossible combinations (constant against a
// different constant) without building condition formulas — the
// written-order replay rebuilds those. On failure it unbinds what it
// bound; on success the caller undoes the bindings when it backtracks.
func matchLite(a *catom, tp ctable.Tuple, b *binding) bool {
	mark := b.mark()
	for i, t := range a.args {
		v := tp.Values[i]
		switch t.kind {
		case TConst:
			if v.IsConst() && t.sym != v {
				b.undo(mark)
				return false
			}
		case TVar:
			if b.bound[t.slot] {
				if bv := b.vals[t.slot]; bv.IsConst() && v.IsConst() && bv != v {
					b.undo(mark)
					return false
				}
				continue
			}
			b.set(t.slot, v)
		}
	}
	return true
}
