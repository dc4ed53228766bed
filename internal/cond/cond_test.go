package cond

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	s := Str("Mkt")
	i := Int(7000)
	v := CVar("x")
	if !s.IsConst() || s.IsCVar() || s.IsInt() {
		t.Errorf("Str term predicates wrong: %+v", s)
	}
	if !i.IsConst() || !i.IsInt() {
		t.Errorf("Int term predicates wrong: %+v", i)
	}
	if v.IsConst() || !v.IsCVar() {
		t.Errorf("CVar term predicates wrong: %+v", v)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{Str("ABC"), "ABC"},
		{Int(-5), "-5"},
		{CVar("x"), "$x"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTermCompareOrdering(t *testing.T) {
	// C-vars < strings < ints by kind rank; within kinds by value.
	ordered := []Term{CVar("x"), CVar("y"), Str("A"), Str("B"), Int(1), Int(2)}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			got := ordered[i].Compare(ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], got)
			}
		}
	}
}

func TestOpNegate(t *testing.T) {
	pairs := map[Op]Op{Eq: Ne, Ne: Eq, Lt: Ge, Ge: Lt, Le: Gt, Gt: Le}
	for op, want := range pairs {
		if got := op.Negate(); got != want {
			t.Errorf("%v.Negate() = %v, want %v", op, got, want)
		}
		if got := op.Negate().Negate(); got != op {
			t.Errorf("double negation of %v = %v", op, got)
		}
	}
}

func TestAtomCanonicalSymmetric(t *testing.T) {
	a := NewAtom(CVar("x"), Eq, Int(1))
	b := NewAtom(Int(1), Eq, CVar("x"))
	if a.Key() != b.Key() {
		t.Errorf("symmetric Eq atoms should share a key: %q vs %q", a.Key(), b.Key())
	}
	lt := NewAtom(CVar("x"), Lt, Int(1))
	gt := NewAtom(Int(1), Gt, CVar("x"))
	// Order atoms are not reordered; x < 1 and 1 > x are distinct
	// spellings (the solver treats them equivalently).
	if lt.Key() == gt.Key() {
		t.Errorf("order atoms should keep their orientation")
	}
}

func TestAtomSumCanonicalSorted(t *testing.T) {
	a := NewSumAtom([]Term{CVar("z"), CVar("x"), CVar("y")}, Eq, Int(1))
	b := NewSumAtom([]Term{CVar("x"), CVar("y"), CVar("z")}, Eq, Int(1))
	if a.Key() != b.Key() {
		t.Errorf("sum atoms should sort summands: %q vs %q", a.Key(), b.Key())
	}
}

func TestAtomEvalGround(t *testing.T) {
	cases := []struct {
		atom Atom
		want bool
	}{
		{NewAtom(Int(3), Eq, Int(3)), true},
		{NewAtom(Int(3), Ne, Int(3)), false},
		{NewAtom(Int(2), Lt, Int(3)), true},
		{NewAtom(Int(3), Le, Int(3)), true},
		{NewAtom(Int(4), Gt, Int(3)), true},
		{NewAtom(Int(2), Ge, Int(3)), false},
		{NewAtom(Str("A"), Eq, Str("A")), true},
		{NewAtom(Str("A"), Eq, Str("B")), false},
		{NewAtom(Str("A"), Lt, Str("B")), true},
		{NewSumAtom([]Term{Int(1), Int(1), Int(0)}, Eq, Int(2)), true},
		{NewSumAtom([]Term{Int(1), Int(1)}, Lt, Int(2)), false},
	}
	for _, c := range cases {
		got, err := c.atom.EvalGround()
		if err != nil {
			t.Errorf("EvalGround(%v): %v", c.atom, err)
			continue
		}
		if got != c.want {
			t.Errorf("EvalGround(%v) = %v, want %v", c.atom, got, c.want)
		}
	}
}

func TestAtomEvalGroundTypeErrors(t *testing.T) {
	if _, err := NewAtom(Str("A"), Eq, Int(1)).EvalGround(); err != nil {
		t.Errorf("string/int equality should be decidable (false), got error %v", err)
	}
	if v, _ := NewAtom(Str("A"), Eq, Int(1)).EvalGround(); v {
		t.Errorf("A = 1 should be false")
	}
	if _, err := NewAtom(Str("A"), Lt, Int(1)).EvalGround(); err == nil {
		t.Errorf("string/int order comparison should error")
	}
	if _, err := NewSumAtom([]Term{Str("A"), Int(1)}, Eq, Int(1)).EvalGround(); err == nil {
		t.Errorf("sum with string member should error")
	}
}

func TestFormulaConstants(t *testing.T) {
	if !True().IsTrue() || True().IsFalse() {
		t.Errorf("True() misbehaves")
	}
	if !False().IsFalse() || False().IsTrue() {
		t.Errorf("False() misbehaves")
	}
}

func TestAtomFGroundCollapse(t *testing.T) {
	if f := Compare(Int(1), Eq, Int(1)); !f.IsTrue() {
		t.Errorf("1 = 1 should collapse to true, got %v", f)
	}
	if f := Compare(Int(1), Eq, Int(2)); !f.IsFalse() {
		t.Errorf("1 = 2 should collapse to false, got %v", f)
	}
	if f := Compare(CVar("x"), Eq, CVar("x")); !f.IsTrue() {
		t.Errorf("$x = $x should collapse to true, got %v", f)
	}
	if f := Compare(CVar("x"), Lt, CVar("x")); !f.IsFalse() {
		t.Errorf("$x < $x should collapse to false, got %v", f)
	}
}

func TestAndOrIdentitiesAndFlattening(t *testing.T) {
	x1 := Compare(CVar("x"), Eq, Int(1))
	y2 := Compare(CVar("y"), Eq, Int(2))
	z3 := Compare(CVar("z"), Eq, Int(3))

	if f := And(); !f.IsTrue() {
		t.Errorf("empty And should be true")
	}
	if f := Or(); !f.IsFalse() {
		t.Errorf("empty Or should be false")
	}
	if f := And(x1, True()); !f.Equal(x1) {
		t.Errorf("And(x, true) should be x, got %v", f)
	}
	if f := And(x1, False()); !f.IsFalse() {
		t.Errorf("And(x, false) should be false")
	}
	if f := Or(x1, True()); !f.IsTrue() {
		t.Errorf("Or(x, true) should be true")
	}
	nested := And(x1, And(y2, z3))
	flat := And(x1, y2, z3)
	if !nested.Equal(flat) {
		t.Errorf("And should flatten: %v vs %v", nested, flat)
	}
	if f := And(x1, x1, x1); !f.Equal(x1) {
		t.Errorf("And should dedup: %v", f)
	}
	// Commutativity through canonical sorting.
	if !And(x1, y2).Equal(And(y2, x1)) {
		t.Errorf("And should be order-insensitive")
	}
	if !Or(x1, y2).Equal(Or(y2, x1)) {
		t.Errorf("Or should be order-insensitive")
	}
}

func TestComplementDetection(t *testing.T) {
	x1 := Compare(CVar("x"), Eq, Int(1))
	notX1 := Compare(CVar("x"), Ne, Int(1))
	if f := And(x1, notX1); !f.IsFalse() {
		t.Errorf("x=1 && x!=1 should be false, got %v", f)
	}
	if f := Or(x1, notX1); !f.IsTrue() {
		t.Errorf("x=1 || x!=1 should be true, got %v", f)
	}
}

func TestNotSimplification(t *testing.T) {
	x1 := Compare(CVar("x"), Eq, Int(1))
	if f := Not(True()); !f.IsFalse() {
		t.Errorf("!true should be false")
	}
	if f := Not(False()); !f.IsTrue() {
		t.Errorf("!false should be true")
	}
	n := Not(x1)
	if n.Kind != FAtom || n.Atom.Op != Ne {
		t.Errorf("negated atom should become complementary atom, got %v", n)
	}
	if f := Not(Not(And(x1, Compare(CVar("y"), Eq, Int(2))))); f.Kind != FAnd {
		t.Errorf("double negation should cancel, got %v", f)
	}
}

func TestFoldSum(t *testing.T) {
	// $x + 1 + $y = 2 should fold to $x+$y = 1.
	f := AtomF(NewSumAtom([]Term{CVar("x"), Int(1), CVar("y")}, Eq, Int(2)))
	if f.Kind != FAtom {
		t.Fatalf("expected atom, got %v", f)
	}
	if len(f.Atom.Sum) != 2 || !f.Atom.RHS.Equal(Int(1)) {
		t.Errorf("fold failed: %v", f.Atom)
	}
	// Fully-constant sums collapse.
	g := AtomF(NewSumAtom([]Term{Int(1), Int(1)}, Eq, Int(2)))
	if !g.IsTrue() {
		t.Errorf("1+1=2 should collapse to true, got %v", g)
	}
}

func TestSubstAndGroundEval(t *testing.T) {
	f := And(
		Compare(CVar("x"), Eq, Int(1)),
		Or(Compare(CVar("y"), Eq, Str("A")), Compare(CVar("y"), Eq, Str("B"))),
	)
	g := f.Subst(map[string]Term{"x": Int(1), "y": Str("A")})
	if !g.IsTrue() {
		t.Errorf("substituted formula should be true, got %v", g)
	}
	h := f.Subst(map[string]Term{"x": Int(0)})
	if !h.IsFalse() {
		t.Errorf("x=0 should falsify, got %v", h)
	}
	// Partial substitution keeps the residue.
	r := f.Subst(map[string]Term{"x": Int(1)})
	if r.Kind != FOr {
		t.Errorf("partial substitution should leave the disjunction, got %v", r)
	}
}

func TestSumSubstEvaluates(t *testing.T) {
	f := AtomF(NewSumAtom([]Term{CVar("x"), CVar("y"), CVar("z")}, Eq, Int(1)))
	g := f.Subst(map[string]Term{"x": Int(0), "y": Int(1), "z": Int(0)})
	if !g.IsTrue() {
		t.Errorf("0+1+0=1 should be true, got %v", g)
	}
	h := f.Subst(map[string]Term{"x": Int(1)})
	if h.Kind != FAtom || len(h.Atom.Sum) != 2 || !h.Atom.RHS.Equal(Int(0)) {
		t.Errorf("partial sum should fold to $y+$z = 0, got %v", h)
	}
}

func TestCVarsCollection(t *testing.T) {
	f := And(
		Compare(CVar("b"), Eq, Int(1)),
		Not(Or(Compare(CVar("a"), Eq, Str("X")), AtomF(NewSumAtom([]Term{CVar("c"), CVar("b")}, Lt, Int(2))))),
	)
	got := f.CVars()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("CVars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CVars = %v, want %v", got, want)
		}
	}
}

func TestAssignAtom(t *testing.T) {
	a := NewAtom(CVar("x"), Eq, Int(1))
	b := NewAtom(CVar("y"), Eq, Int(2))
	f := Or(AtomF(a), AtomF(b))
	if g := f.AssignAtom(a, true); !g.IsTrue() {
		t.Errorf("assigning a=true in a||b should give true, got %v", g)
	}
	if g := f.AssignAtom(a, false); !g.Equal(AtomF(b)) {
		t.Errorf("assigning a=false in a||b should give b, got %v", g)
	}
}

func TestFormulaStringRoundTrippable(t *testing.T) {
	f := And(
		Compare(CVar("x"), Eq, Str("Mkt")),
		Or(Compare(CVar("p"), Ne, Int(80)), Compare(CVar("p"), Ne, Int(344))),
	)
	s := f.String()
	for _, frag := range []string{"$x = Mkt", "||", "&&"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestConjuncts(t *testing.T) {
	x1 := Compare(CVar("x"), Eq, Int(1))
	y2 := Compare(CVar("y"), Eq, Int(2))
	if got := And(x1, y2).Conjuncts(); len(got) != 2 {
		t.Errorf("Conjuncts of binary And = %d elements", len(got))
	}
	if got := x1.Conjuncts(); len(got) != 1 || !got[0].Equal(x1) {
		t.Errorf("Conjuncts of atom should be itself")
	}
	if got := True().Conjuncts(); len(got) != 0 {
		t.Errorf("Conjuncts of true should be empty")
	}
}

func TestEvalGroundFormula(t *testing.T) {
	f := And(Compare(Int(1), Lt, Int(2)), Not(Compare(Str("A"), Eq, Str("B"))))
	v, err := f.EvalGround()
	if err != nil || !v {
		t.Errorf("ground eval = %v, %v", v, err)
	}
}

func TestAtomsCollection(t *testing.T) {
	a1 := NewAtom(CVar("x"), Eq, Int(1))
	a2 := NewAtom(CVar("y"), Ne, Str("A"))
	f := Or(And(AtomF(a1), AtomF(a2)), AtomF(a1))
	atoms := f.Atoms()
	if len(atoms) != 2 {
		t.Fatalf("Atoms = %v, want 2 distinct", atoms)
	}
	// Sorted by key and duplicate-free.
	if atoms[0].Key() >= atoms[1].Key() {
		t.Errorf("atoms not sorted: %v", atoms)
	}
}

func TestEvalGroundAllKinds(t *testing.T) {
	cases := []struct {
		f    *Formula
		want bool
	}{
		{True(), true},
		{False(), false},
		{And(Compare(Int(1), Lt, Int(2)), Compare(Int(2), Lt, Int(3))), true},
		{And(Compare(Int(1), Lt, Int(2)), Compare(Int(3), Lt, Int(2))), false},
		{Or(Compare(Int(3), Lt, Int(2)), Compare(Int(1), Lt, Int(2))), true},
		{Or(Compare(Int(3), Lt, Int(2)), Compare(Int(4), Lt, Int(2))), false},
		{Not(Compare(Int(3), Lt, Int(2))), true},
	}
	for i, c := range cases {
		got, err := c.f.EvalGround()
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if got != c.want {
			t.Errorf("case %d: EvalGround(%v) = %v, want %v", i, c.f, got, c.want)
		}
	}
	// Error propagation: a type-mismatched ground atom surfaces its
	// error (And/Or constructors fold true/false identities away, so
	// the bad atom is what remains).
	bad := AtomF(Atom{Sum: []Term{Str("A")}, Op: Lt, RHS: Int(1)})
	if bad.Kind != FAtom {
		t.Fatalf("expected the mixed-type atom to stay symbolic, got %v", bad)
	}
	if _, err := bad.EvalGround(); err == nil {
		t.Errorf("type error should surface from EvalGround")
	}
	if _, err := Not(bad).EvalGround(); err == nil {
		t.Errorf("type error should propagate through Not")
	}
}

func TestTermStringQuoting(t *testing.T) {
	cases := map[string]string{
		"Mkt":        "Mkt",      // bare constant identifier
		"R&D":        "R&D",      // ampersand allowed in identifiers
		"1.2.3.4":    "1.2.3.4",  // dotted literal stays bare
		"10.0.0.0":   "10.0.0.0", // multi-dot
		"lower":      "'lower'",  // would re-lex as a variable
		"_x":         "'_x'",     // underscore start = variable
		"has space":  "'has space'",
		"123":        "'123'",   // would re-lex as an integer
		"1.2.":       "'1.2.'",  // trailing dot is not a dotted literal
		".1.2":       "'.1.2'",  // leading dot
		"1..2":       "'1..2'",  // double dot
		"A-B":        "'A-B'",   // dash not an identifier char
		"":           "''",      // empty string
		`it's`:       `'it\'s'`, // quote escaping
		`back\slash`: `'back\\slash'`,
	}
	for in, want := range cases {
		if got := Str(in).String(); got != want {
			t.Errorf("Str(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestComplementDetectionAmongMany(t *testing.T) {
	// More children than combine's stack buffer, with each complement
	// pair separated in canonical order by other atoms.
	var fs []*Formula
	for i := int64(0); i < 10; i++ {
		fs = append(fs, Compare(CVar("v"), Lt, Int(i)))
	}
	ge := Compare(CVar("v"), Ge, Int(4))
	if f := And(append(fs, ge)...); !f.IsFalse() {
		t.Errorf("v<4 && ... && v>=4 should be false, got %v", f)
	}
	if f := Or(append([]*Formula{ge}, fs...)...); !f.IsTrue() {
		t.Errorf("v<4 || ... || v>=4 should be true, got %v", f)
	}
	sum := AtomF(NewSumAtom([]Term{CVar("a"), CVar("b")}, Eq, Int(1)))
	if f := And(sum, Compare(CVar("c"), Eq, Int(0)), Not(sum)); !f.IsFalse() {
		t.Errorf("a+b=1 && c=0 && a+b!=1 should be false, got %v", f)
	}
	or := Or(Compare(CVar("x"), Eq, Int(1)), Compare(CVar("y"), Eq, Int(2)))
	if f := And(Compare(CVar("z"), Eq, Int(3)), Not(or), or); !f.IsFalse() {
		t.Errorf("g && !g should be false, got %v", f)
	}
	if f := And(append(fs[:9:9], fs[0], fs[3])...); f.Kind != FAnd || len(f.Sub) != 9 {
		t.Errorf("And should dedup past its stack buffer, got %v", f)
	}
}

// referenceCombine is the textbook canonical conjunction: recursive
// flattening, map dedup, sort, and complement detection by comparing
// every atom pair. It returns (nil, true) when the conjunction
// collapses to false.
func referenceCombine(fs []*Formula) ([]*Formula, bool) {
	seen := map[*Formula]bool{}
	var flat []*Formula
	var add func(f *Formula) bool
	add = func(f *Formula) bool {
		switch f.Kind {
		case FTrue:
			return true
		case FFalse:
			return false
		case FAnd:
			for _, s := range f.Sub {
				if !add(s) {
					return false
				}
			}
			return true
		}
		if !seen[f] {
			seen[f] = true
			flat = append(flat, f)
		}
		return true
	}
	for _, f := range fs {
		if !add(f) {
			return nil, true
		}
	}
	sort.Slice(flat, func(i, j int) bool { return compareNode(flat[i], flat[j]) < 0 })
	for _, f := range flat {
		for _, g := range flat {
			if f.Kind == FAtom && g.Kind == FAtom && g.Atom.Equal(f.Atom.Negate()) {
				return nil, true
			}
			if f.Kind == FNot && f.Sub[0] == g {
				return nil, true
			}
		}
	}
	return flat, false
}

func TestAndMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	ops := []Op{Eq, Ne, Lt, Le, Gt, Ge}
	atom := func() *Formula {
		return Compare(CVar(string(rune('a'+rnd.Intn(3)))), ops[rnd.Intn(len(ops))], Int(int64(rnd.Intn(3))))
	}
	var pool []*Formula
	for i := 0; i < 20; i++ {
		pool = append(pool, atom())
	}
	for i := 0; i < 10; i++ {
		pool = append(pool, And(atom(), atom()), Or(atom(), atom()), Not(Or(atom(), atom())))
	}
	for trial := 0; trial < 2000; trial++ {
		fs := make([]*Formula, rnd.Intn(14))
		for i := range fs {
			fs[i] = pool[rnd.Intn(len(pool))]
		}
		got := And(fs...)
		want, isFalse := referenceCombine(fs)
		switch {
		case isFalse:
			if !got.IsFalse() {
				t.Fatalf("And(%v) = %v, want false", fs, got)
			}
		case len(want) == 0:
			if !got.IsTrue() {
				t.Fatalf("And(%v) = %v, want true", fs, got)
			}
		case len(want) == 1:
			if got != want[0] {
				t.Fatalf("And(%v) = %v, want %v", fs, got, want[0])
			}
		default:
			if got.Kind != FAnd || !slices.Equal(got.Sub, want) {
				t.Fatalf("And(%v) = %v, want the conjunction of %v", fs, got, want)
			}
		}
	}
}

// TestAndNoAllocs locks in combine's zero-operand and one-operand fast
// paths, the common case when a body match emits no equality.
func TestAndNoAllocs(t *testing.T) {
	f := Compare(CVar("x"), Eq, Int(1))
	if n := testing.AllocsPerRun(100, func() { And() }); n != 0 {
		t.Errorf("And() allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { And(f) }); n != 0 {
		t.Errorf("And(f) allocates %v times, want 0", n)
	}
}
