package faurelog

// Rule compilation. Before an evaluation runs, every rule is compiled
// once: each program variable gets a slot number, so the join binds
// values into a reused []cond.Term and undoes them through a trail
// instead of assigning and deleting keys of a name-keyed map; the body
// is stored positives-first, the order the join needs; and comparisons
// and head conditions that mention no program variable are
// instantiated once for the whole evaluation instead of once per
// emission.

import (
	"fmt"

	"faure/internal/cond"
)

// cterm is a rule term compiled for evaluation.
type cterm struct {
	kind TermKind
	slot int       // TVar: the variable's binding slot; -1 when unknown
	name string    // TVar: the variable's name, for error messages
	sym  cond.Term // TConst, TCVar: the c-domain symbol
}

// catom is a body literal compiled for evaluation. The written literal
// is kept for printing and error messages.
type catom struct {
	Atom
	args []cterm
}

// ccomp is a comparison compiled for evaluation. fixed holds the
// instantiated atom when no term is a program variable.
type ccomp struct {
	sum   []cterm
	op    cond.Op
	rhs   cterm
	fixed *cond.Formula
}

// ccond is a head-condition expression compiled for evaluation: a
// comparison leaf (kind FAtom) or an FAnd/FOr/FNot node over sub.
// fixed holds the instantiated formula when the expression uses no
// program variable.
type ccond struct {
	kind  cond.FKind
	comp  ccomp
	sub   []ccond
	fixed *cond.Formula
}

// crule is a rule compiled for one evaluation.
type crule struct {
	src   Rule
	nvars int
	// body holds the literals positives-first (stable within each
	// group), so every negated literal's variables are bound before it
	// is reached; delta indexes of units refer to this order.
	body     []catom
	head     []cterm
	comps    []ccomp
	headCond *ccond // nil when the rule has none
	// str renders the rule with its body in execution order; it is set
	// per rule application, and only when traces or provenance record
	// it.
	str string
}

// compileRule numbers the rule's program variables and compiles its
// literals, comparisons and head condition. The rule must be valid
// (safe), so every variable a head, comparison or negated literal uses
// is bound by a positive literal.
func compileRule(r Rule) *crule {
	slots := map[string]int{}
	slotOf := func(name string) int {
		s, ok := slots[name]
		if !ok {
			s = len(slots)
			slots[name] = s
		}
		return s
	}
	for _, a := range r.Body {
		if !a.Neg {
			for _, t := range a.Args {
				if t.Kind == TVar {
					slotOf(t.Name)
				}
			}
		}
	}
	c := &crule{src: r, nvars: len(slots)}
	c.body = make([]catom, 0, len(r.Body))
	for _, neg := range []bool{false, true} {
		for _, a := range r.Body {
			if a.Neg == neg {
				c.body = append(c.body, catom{Atom: a, args: compileTerms(a.Args, slots)})
			}
		}
	}
	c.head = compileTerms(r.Head.Args, slots)
	c.comps = make([]ccomp, len(r.Comps))
	for i, cmp := range r.Comps {
		c.comps[i] = compileComparison(cmp, slots)
	}
	if r.HeadCond != nil {
		hc := compileCond(r.HeadCond, slots)
		c.headCond = &hc
	}
	return c
}

func compileTerm(t Term, slots map[string]int) cterm {
	if t.Kind == TVar {
		s, ok := slots[t.Name]
		if !ok {
			s = -1
		}
		return cterm{kind: TVar, slot: s, name: t.Name}
	}
	return cterm{kind: t.Kind, sym: t.Symbol()}
}

func compileTerms(ts []Term, slots map[string]int) []cterm {
	out := make([]cterm, len(ts))
	for i, t := range ts {
		out[i] = compileTerm(t, slots)
	}
	return out
}

func compileComparison(cmp Comparison, slots map[string]int) ccomp {
	c := ccomp{sum: compileTerms(cmp.Sum, slots), op: cmp.Op, rhs: compileTerm(cmp.RHS, slots)}
	if len(cmp.Vars()) == 0 {
		// Variable-free: instantiate now, once. Resolving constants and
		// c-variables cannot fail.
		c.fixed, _ = c.instantiate(nil)
	}
	return c
}

func compileCond(ce CondExpr, slots map[string]int) ccond {
	var c ccond
	switch e := ce.(type) {
	case CondComp:
		c = ccond{kind: cond.FAtom, comp: compileComparison(e.Comp, slots)}
	case CondAnd:
		c = ccond{kind: cond.FAnd, sub: compileConds(e.Sub, slots)}
	case CondOr:
		c = ccond{kind: cond.FOr, sub: compileConds(e.Sub, slots)}
	case CondNot:
		c = ccond{kind: cond.FNot, sub: []ccond{compileCond(e.Sub, slots)}}
	}
	if c.kind != cond.FAtom && len(ce.vars(nil)) == 0 {
		c.fixed, _ = c.instantiate(nil)
	}
	return c
}

func compileConds(sub []CondExpr, slots map[string]int) []ccond {
	out := make([]ccond, len(sub))
	for i, s := range sub {
		out[i] = compileCond(s, slots)
	}
	return out
}

// instantiateClosed instantiates a condition expression that may use
// only constants and c-variables (a fact's annotation, a standalone
// condition); a program variable is reported as unbound.
func instantiateClosed(ce CondExpr) (*cond.Formula, error) {
	c := compileCond(ce, nil)
	return c.instantiate(nil)
}

// resolve returns the term's c-domain value under the slot values.
func (t cterm) resolve(vals []cond.Term) (cond.Term, error) {
	if t.kind != TVar {
		return t.sym, nil
	}
	if t.slot < 0 || t.slot >= len(vals) {
		return cond.Term{}, fmt.Errorf("faurelog: unbound variable %s in comparison", t.name)
	}
	return vals[t.slot], nil
}

// instantiate grounds the comparison's terms under the slot values and
// builds the corresponding condition atom.
func (c *ccomp) instantiate(vals []cond.Term) (*cond.Formula, error) {
	if c.fixed != nil {
		return c.fixed, nil
	}
	var buf [4]cond.Term
	sum := buf[:0]
	for _, t := range c.sum {
		v, err := t.resolve(vals)
		if err != nil {
			return nil, err
		}
		sum = append(sum, v)
	}
	rhs, err := c.rhs.resolve(vals)
	if err != nil {
		return nil, err
	}
	return cond.AtomF(cond.NewSumAtom(sum, c.op, rhs)), nil
}

// instantiate builds the head condition under the slot values.
func (c *ccond) instantiate(vals []cond.Term) (*cond.Formula, error) {
	if c.fixed != nil {
		return c.fixed, nil
	}
	if c.kind == cond.FAtom {
		return c.comp.instantiate(vals)
	}
	fs := make([]*cond.Formula, len(c.sub))
	for i := range c.sub {
		f, err := c.sub[i].instantiate(vals)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	switch c.kind {
	case cond.FAnd:
		return cond.And(fs...), nil
	case cond.FOr:
		return cond.Or(fs...), nil
	default:
		return cond.Not(fs[0]), nil
	}
}

// binding holds one rule application's variable values by slot. set
// records each new binding on the trail, and undo unbinds back to a
// mark, so backtracking allocates nothing.
type binding struct {
	vals  []cond.Term
	bound []bool
	trail []int
}

func newBinding(n int) *binding {
	return &binding{vals: make([]cond.Term, n), bound: make([]bool, n), trail: make([]int, 0, n)}
}

func (b *binding) set(slot int, v cond.Term) {
	b.vals[slot] = v
	b.bound[slot] = true
	b.trail = append(b.trail, slot)
}

// mark returns the trail position undo rolls back to.
func (b *binding) mark() int { return len(b.trail) }

func (b *binding) undo(mark int) {
	for _, s := range b.trail[mark:] {
		b.bound[s] = false
	}
	b.trail = b.trail[:mark]
}
