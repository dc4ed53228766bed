package faurelog_test

import (
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/datalog"
	"faure/internal/faurelog"
	"faure/internal/lossless"
	"faure/internal/solver"
)

// The planner may bind a variable first to a constant where written
// order bound it to a c-variable, so a reordered rule's c-table can
// differ syntactically from the written-order one. What must hold is
// the paper's §4 loss-lessness: in every possible world the planned
// c-table instantiates to exactly the answer of evaluating that world
// on its own. These tests check it on fixtures the planner reorders,
// under the default options and every ablation that changes which
// emissions survive or how candidates are found, twice per world:
// with lossless.Check, and against the pure datalog engine
// (internal/datalog). lossless.Check evaluates each world with faurelog
// itself, which reorders the same rule the same way, so a join-order
// bug shared by the symbolic and the per-world runs shows only against
// an evaluator that shares no join code with faurelog.

// ablations are the option sets each fixture's symbolic evaluation runs
// under; lossless.CheckWith keeps its per-world evaluations on defaults.
var ablations = []faurelog.Options{
	{},
	{NoEagerPrune: true},
	{NoAbsorb: true},
	{NoIndex: true},
	{NoEagerPrune: true, NoAbsorb: true},
}

// parseFixture parses a program and its database.
func parseFixture(t *testing.T, progSrc, dbSrc string) (*faurelog.Program, *ctable.Database) {
	t.Helper()
	prog, err := faurelog.Parse(progSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	db, err := faurelog.ParseDatabase(dbSrc)
	if err != nil {
		t.Fatalf("ParseDatabase: %v", err)
	}
	return prog, db
}

// requireReordered fails the test unless the planner reorders at least
// one rule application of the fixture, so the check below is never
// vacuous.
func requireReordered(t *testing.T, prog *faurelog.Program, db *ctable.Database) {
	t.Helper()
	res, err := faurelog.Eval(prog, db, faurelog.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if res.Stats.PlansReordered == 0 {
		t.Fatalf("fixture is not reordered by the planner: %+v", res.Stats)
	}
}

// checkLossless runs lossless.CheckWith over every world of the
// fixture's finite-domain c-variables under each ablation, and holds
// each ablation's symbolic answer against the datalog oracle.
func checkLossless(t *testing.T, progSrc, dbSrc string) {
	t.Helper()
	prog, db := parseFixture(t, progSrc, dbSrc)
	requireReordered(t, prog, db)
	oracle, err := datalog.Parse(progSrc)
	if err != nil {
		t.Fatalf("datalog.Parse: %v", err)
	}
	for _, opts := range ablations {
		mis, err := lossless.CheckWith(prog, db, db.CVars(), 10, opts)
		if err != nil {
			t.Fatalf("CheckWith %+v: %v", opts, err)
		}
		for _, m := range mis {
			t.Errorf("%+v: %v", opts, m)
		}
		res, err := faurelog.Eval(prog, db, opts)
		if err != nil {
			t.Fatalf("Eval %+v: %v", opts, err)
		}
		agreesWithOracle(t, oracle, db, res.DB)
	}
}

// agreesWithOracle checks, in every world of db's c-variables, that
// each IDB relation of symbolic instantiates to exactly what the
// datalog engine derives from db's instantiation.
func agreesWithOracle(t *testing.T, oracle *datalog.Program, db, symbolic *ctable.Database) {
	t.Helper()
	err := solver.New(db.Doms).Worlds(db.CVars(), func(assign map[string]cond.Term) bool {
		edb := datalog.Instance{}
		for name, tbl := range db.Tables {
			rel := edb.Rel(name, tbl.Schema.Arity())
			for _, tp := range worldTuples(t, tbl, assign) {
				rel.Insert(tp.Values)
			}
		}
		want, err := datalog.Eval(oracle, edb)
		if err != nil {
			t.Fatalf("datalog.Eval in world %v: %v", assign, err)
		}
		for pred := range oracle.IDB() {
			got := map[string]bool{}
			for _, tp := range worldTuples(t, symbolic.Table(pred), assign) {
				got[tp.DataKey()] = true
			}
			exp := map[string]bool{}
			if rel := want[pred]; rel != nil {
				for _, row := range rel.Rows() {
					exp[ctable.NewTuple(row, nil).DataKey()] = true
				}
			}
			for k := range exp {
				if !got[k] {
					t.Errorf("world %v: %s(%s) missing from the c-table", assign, pred, k)
				}
			}
			for k := range got {
				if !exp[k] {
					t.Errorf("world %v: %s(%s) not derived by the oracle", assign, pred, k)
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// worldTuples instantiates a c-table in one world: the tuples whose
// condition holds there, values substituted.
func worldTuples(t *testing.T, tbl *ctable.Table, assign map[string]cond.Term) []ctable.Tuple {
	t.Helper()
	if tbl == nil {
		return nil
	}
	var out []ctable.Tuple
	for _, tp := range tbl.Tuples {
		st := tp.Subst(assign)
		switch c := st.Condition(); {
		case c.IsTrue():
			out = append(out, st)
		case !c.IsFalse():
			t.Fatalf("world %v leaves %v undecided", assign, tp)
		}
	}
	return out
}

// A three-way join over relations mixing constants and c-variables: the
// planner starts from src, the smallest relation, so x is first bound
// by src rather than by mix.
func TestPlannedParityMultiJoinCVars(t *testing.T) {
	checkLossless(t, `h(y, w) :- mix(x, y), src(x), ext(y, w).`, `
		var $a in {1, 2, 3}.
		var $b in {1, 2, 3}.
		mix(1, 10). mix($a, 20). mix(2, 30). mix(1, 40). mix($b, 50). mix(3, 60).
		src(1). src(2). src($a).
		ext(10, 7). ext(20, 7). ext(30, 8). ext(40, 8). ext(50, 9). ext(60, 9).
	`)
}

// Recursive rule with a pinned delta plus a cheap filter literal the
// planner hoists above the second recursive literal.
func TestPlannedParityRecursiveDelta(t *testing.T) {
	checkLossless(t, `
		path(x, y) :- edge(x, y).
		path(x, z) :- path(x, y), path(y, z), hub(y).
	`, `
		var $e in {2, 3}.
		edge(1, 2). edge(2, 3). edge(3, 4). edge($e, 5). edge(4, 6).
		hub(2). hub(3). hub(4). hub(5).
	`)
}

// A negated literal rides a reordered rule: its condition is built
// under the planned bindings, against a relation holding c-variable
// tuples.
func TestPlannedParityNegation(t *testing.T) {
	checkLossless(t, `q(x, y) :- link(x, y), node(x), not bad(y).`, `
		var $u in {20, 30}.
		node(1). node(2).
		link(1, 10). link(1, 20). link(2, 30). link(2, 40). link(1, 30).
		bad(20). bad($u).
	`)
}

// Deferred pruning and absorption off change which emissions survive;
// the reordered join must stay loss-less under both.
func TestPlannedParityAblations(t *testing.T) {
	checkLossless(t, `h(y, w) :- mix(x, y), src(x), ext(y, w).`, `
		var $a in {1, 2, 3}.
		mix(1, 10). mix($a, 20). mix(2, 30). mix(1, 40).
		src(1). src(2). src($a).
		ext(10, 7). ext(20, 7). ext(30, 8). ext(40, 8).
	`)
}

// Incremental propagation plans its delta units like scratch rounds:
// the incrementally grown answer must match the datalog oracle on the
// grown database in every world, and a from-scratch evaluation of the
// grown database must be loss-less.
func TestPlannedParityIncremental(t *testing.T) {
	progSrc := `
		path(x, y) :- edge(x, y).
		path(x, z) :- path(x, y), path(y, z), hub(y).
	`
	prog, db := parseFixture(t, progSrc, `
		var $e in {3, 4}.
		edge(1, 2). edge(2, $e).
		hub(2). hub(3). hub(4).
	`)
	added := map[string][]ctable.Tuple{
		"edge": {
			ctable.NewTuple([]cond.Term{cond.Int(3), cond.Int(4)}, nil),
			ctable.NewTuple([]cond.Term{cond.Int(4), cond.Int(5)}, nil),
		},
	}
	base, err := faurelog.Eval(prog, db, faurelog.Options{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	inc, err := faurelog.EvalIncrement(prog, base.DB, added, faurelog.Options{})
	if err != nil {
		t.Fatalf("EvalIncrement: %v", err)
	}
	if inc.Stats.PlansReordered == 0 {
		t.Fatalf("incremental run is not reordered by the planner: %+v", inc.Stats)
	}

	grown := db.Clone()
	for _, tp := range added["edge"] {
		if err := grown.Table("edge").Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	mis, err := lossless.Check(prog, grown, grown.CVars(), 10)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	for _, m := range mis {
		t.Errorf("scratch: %v", m)
	}
	oracle, err := datalog.Parse(progSrc)
	if err != nil {
		t.Fatalf("datalog.Parse: %v", err)
	}
	agreesWithOracle(t, oracle, grown, inc.DB)
}
