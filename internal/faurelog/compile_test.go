package faurelog

import (
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
)

func TestCompileRuleSlots(t *testing.T) {
	r := compileRule(MustParse(`h(x, z) [$u = 1] :- not n(z), r(x, y), s(y, z), $x+$y+$z = 1, x != z.`).Rules[0])
	if r.nvars != 3 {
		t.Fatalf("nvars = %d, want 3 (x, y, z)", r.nvars)
	}
	// Slots follow first occurrence in the positive literals.
	if got := []int{r.head[0].slot, r.head[1].slot}; got[0] != 0 || got[1] != 2 {
		t.Errorf("head slots = %v, want [0 2]", got)
	}
	if neg := r.body[len(r.body)-1]; !neg.Neg || neg.args[0].slot != 2 {
		t.Errorf("negated literal %v compiled with slot %d, want last and slot 2", neg.Atom, neg.args[0].slot)
	}
	// Comparisons and head conditions without program variables are
	// instantiated once, at compile time; the others per emission.
	if r.comps[0].fixed == nil || r.comps[0].fixed.String() != "$x+$y+$z = 1" {
		t.Errorf("variable-free comparison not hoisted: %v", r.comps[0].fixed)
	}
	if r.comps[1].fixed != nil {
		t.Errorf("comparison over x, z hoisted: %v", r.comps[1].fixed)
	}
	if f, err := r.headCond.instantiate(nil); err != nil || f.String() != "$u = 1" {
		t.Errorf("variable-free head condition = %v, %v", f, err)
	}
	vals := []cond.Term{cond.Int(1), cond.Int(2), cond.Int(3)}
	if f, err := r.comps[1].instantiate(vals); err != nil || !f.IsTrue() {
		t.Errorf("1 != 3 instantiated to %v, %v", f, err)
	}
}

func TestMatchAtomUndoesOnFailure(t *testing.T) {
	r := compileRule(MustParse(`h(x, y) :- r(x, x, y).`).Rules[0])
	b := newBinding(r.nvars)
	tp := ctable.NewTuple([]cond.Term{cond.Int(1), cond.Int(2), cond.Int(3)}, nil)
	if _, ok := matchAtom(&r.body[0], tp, b); ok {
		t.Fatalf("r(x, x, y) matched (1, 2, 3)")
	}
	if b.mark() != 0 || b.bound[0] || b.bound[1] {
		t.Errorf("failed match left bindings: trail %v bound %v", b.trail, b.bound)
	}
	tp = ctable.NewTuple([]cond.Term{cond.Int(1), cond.CVar("c"), cond.Int(3)}, nil)
	f, ok := matchAtom(&r.body[0], tp, b)
	if !ok || f.String() != "$c = 1" || b.vals[0] != cond.Int(1) || b.vals[1] != cond.Int(3) {
		t.Errorf("match = %v, %v with vals %v, want $c = 1 binding x=1, y=3", f, ok, b.vals)
	}
	b.undo(0)
	if b.bound[0] || b.bound[1] {
		t.Errorf("undo left bindings: %v", b.bound)
	}
}

// TestMatchBindOnlyNoAllocs locks in the slot-bound join: a body match
// that only binds variables, or checks ones already bound, and emits no
// equality allocates nothing.
func TestMatchBindOnlyNoAllocs(t *testing.T) {
	r := compileRule(MustParse(`h(x, z) :- r(x, y), s(y, z, Mkt).`).Rules[0])
	b := newBinding(r.nvars)
	rt := ctable.NewTuple([]cond.Term{cond.Int(1), cond.Int(2)}, nil)
	st := ctable.NewTuple([]cond.Term{cond.Int(2), cond.Str("B"), cond.Str("Mkt")}, nil)
	n := testing.AllocsPerRun(100, func() {
		f, ok := matchAtom(&r.body[0], rt, b)
		if !ok || !f.IsTrue() {
			t.Fatalf("r(x, y) against (1, 2) = %v, %v", f, ok)
		}
		mark := b.mark()
		if f, ok := matchAtom(&r.body[1], st, b); !ok || !f.IsTrue() {
			t.Fatalf("s(y, z, Mkt) against (2, B, Mkt) = %v, %v", f, ok)
		}
		b.undo(mark)
		b.undo(0)
	})
	if n != 0 {
		t.Errorf("bind-only match allocates %v times, want 0", n)
	}
}
