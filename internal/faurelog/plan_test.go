package faurelog

import "testing"

// planFixture parses a program and database and returns an engine whose
// store reflects the database and whose rules are compiled, for driving
// the planner directly.
func planFixture(t *testing.T, progSrc, dbSrc string) *engine {
	t.Helper()
	prog, err := Parse(progSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	db, err := ParseDatabase(dbSrc)
	if err != nil {
		t.Fatalf("ParseDatabase: %v", err)
	}
	e, err := newEngine(prog, db, Options{})
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	return e
}

func TestPlanReordersSelectiveFirst(t *testing.T) {
	// big has 6 tuples, sel has 1: with nothing bound the greedy pick is
	// the smaller relation, then big joins on the variable sel bound.
	e := planFixture(t, `h(x, z) :- big(x, y), sel(y, z).`, `
		big(1, 1). big(2, 1). big(3, 2). big(4, 2). big(5, 3). big(6, 3).
		sel(2, 9).
	`)
	r := e.rules[0]
	order, changed := e.planPositives(r, -1, len(r.body))
	if !changed || len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Errorf("order = %v (changed %v), want [1 0]", order, changed)
	}
}

func TestPlanConstBoundColumnWins(t *testing.T) {
	// Equal sizes, but b's first column is probed with a constant and
	// every value there is distinct, so b's estimate is ~1 tuple.
	e := planFixture(t, `h(x) :- a(x, y), b(5, y).`, `
		a(1, 1). a(2, 1). a(3, 2). a(4, 2).
		b(5, 1). b(6, 1). b(7, 2). b(8, 2).
	`)
	r := e.rules[0]
	order, changed := e.planPositives(r, -1, len(r.body))
	if !changed || order[0] != 1 {
		t.Errorf("order = %v (changed %v), want b first", order, changed)
	}
}

func TestPlanDeltaPinned(t *testing.T) {
	// Slot 0 is the fed delta literal: it must stay first even though
	// hub is far cheaper.
	e := planFixture(t, `tri(x, z) :- fat(x, y), fat(y, z), hub(y).`, `
		fat(1, 2). fat(1, 3). fat(2, 4). fat(2, 5). fat(3, 6). fat(3, 7).
		hub(2).
	`)
	r := e.rules[0]
	order, changed := e.planPositives(r, 0, len(r.body))
	if order[0] != 0 {
		t.Fatalf("order = %v, delta slot must stay pinned first", order)
	}
	// With x,y bound by the delta, hub(y) (1 tuple) beats fat(y,z).
	if !changed || order[1] != 2 {
		t.Errorf("order = %v (changed %v), want hub before the second fat", order, changed)
	}
}

func TestPlanTiesKeepWrittenOrder(t *testing.T) {
	e := planFixture(t, `h(x) :- a(x), b(x).`, `
		a(1). a(2).
		b(1). b(2).
	`)
	r := e.rules[0]
	order, changed := e.planPositives(r, -1, len(r.body))
	if changed || order[0] != 0 || order[1] != 1 {
		t.Errorf("order = %v (changed %v), equal costs must keep written order", order, changed)
	}
}

// Planner decisions and store counters surface in Stats.
func TestPlanStats(t *testing.T) {
	prog, err := Parse(`h(y, w) :- mix(x, y), src(x), ext(y, w).`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	db, err := ParseDatabase(`
		mix(1, 10). mix(2, 20). mix(2, 30). mix(1, 40).
		src(1). src(2).
		ext(10, 7). ext(20, 7). ext(30, 8). ext(40, 8).
	`)
	if err != nil {
		t.Fatalf("ParseDatabase: %v", err)
	}
	res, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	s := res.Stats
	if s.PlansPlanned == 0 || s.PlansReordered == 0 {
		t.Errorf("planner counters empty: %+v", s)
	}
	if s.Probes+s.MultiProbes == 0 {
		t.Errorf("no store probes recorded: %+v", s)
	}
	if r := s.ProbeHitRatio(); r <= 0 || r > 1 {
		t.Errorf("ProbeHitRatio = %v", r)
	}
}

// TestPlannedParityTrace: provenance follows the join that ran. The
// rule is written link-first, the planner starts from the smaller node
// relation, and every derivation records the rule in that planned
// order with its sources in the same order: node, link, then the
// negated bad pattern — each positive source a stored tuple that
// agrees with the head.
func TestPlannedParityTrace(t *testing.T) {
	prog := MustParse(`q(x, y) :- link(x, y), node(x), not bad(y).`)
	db, err := ParseDatabase(`
		var $u in {20, 30}.
		node(1). node(2).
		link(1, 10). link(1, 20). link(2, 30). link(2, 40). link(3, 50).
		bad(20). bad($u).
	`)
	if err != nil {
		t.Fatalf("ParseDatabase: %v", err)
	}
	res, x := explainRun(t, prog, db, Options{})
	if res.Stats.PlansReordered != 1 {
		t.Fatalf("PlansReordered = %d, want 1", res.Stats.PlansReordered)
	}
	const planned = "q(x, y) :- node(x), link(x, y), not bad(y)."
	tuples := res.DB.Table("q").Tuples
	if len(tuples) != 3 {
		t.Fatalf("q has %d tuples, want 3: %v", len(tuples), res.DB.Table("q"))
	}
	for _, tp := range tuples {
		d := x.Explain("q", tp)
		if d.Rule != planned {
			t.Fatalf("rule for %v = %q, want %q", tp, d.Rule, planned)
		}
		if len(d.Children) != 3 {
			t.Fatalf("%v has %d sources, want 3", tp, len(d.Children))
		}
		for i, want := range []struct {
			pred    string
			tuple   string
			negated bool
		}{
			{"node", "(" + tp.Values[0].String() + ")", false},
			{"link", "(" + tp.Values[0].String() + ", " + tp.Values[1].String() + ")", false},
			{"bad", "(" + tp.Values[1].String() + ")", true},
		} {
			c := d.Children[i]
			if c.Pred != want.pred || c.Tuple != want.tuple || c.Negated != want.negated || c.Missing {
				t.Errorf("%v source %d = %s(%s) negated=%v missing=%v, want %s(%s) negated=%v",
					tp, i, c.Pred, c.Tuple, c.Negated, c.Missing, want.pred, want.tuple, want.negated)
			}
		}
	}
}
