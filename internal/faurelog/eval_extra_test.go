package faurelog

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/prov"
	"faure/internal/solver"
)

// condGraph builds a two-ring topology with conditional cross links:
// recursion deep enough for several delta rounds, and boolean
// link-state c-variables so pruning and absorption both fire.
func condGraph(t *testing.T, n int) *ctable.Database {
	t.Helper()
	db := ctable.NewDatabase()
	link := ctable.NewTable("link", "src", "dst")
	node := ctable.NewTable("node", "id")
	for i := 0; i < n; i++ {
		node.MustInsert(nil, cond.Int(int64(i)))
		link.MustInsert(nil, cond.Int(int64(i)), cond.Int(int64((i+1)%n)))
		if i%3 == 0 {
			v := fmt.Sprintf("l%d", i)
			db.DeclareVar(v, solver.BoolDomain())
			up := cond.Compare(cond.CVar(v), cond.Eq, cond.Int(1))
			link.MustInsert(up, cond.Int(int64(i)), cond.Int(int64((i+7)%n)))
			// A second conditional edge with the complementary state, so
			// some derivations conjoin l=1 with l=0 and prune.
			down := cond.Compare(cond.CVar(v), cond.Eq, cond.Int(0))
			link.MustInsert(down, cond.Int(int64((i+7)%n)), cond.Int(int64(i)))
		}
	}
	db.AddTable(link)
	db.AddTable(node)
	return db
}

// dumpResult renders every derived table — tuple data, conditions and
// ordering — into one canonical string for bit-for-bit comparison.
func dumpResult(res *Result) string {
	var names []string
	for name := range res.DB.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		tbl := res.DB.Tables[name]
		fmt.Fprintf(&b, "== %s (%s)\n", name, strings.Join(tbl.Schema.Attrs, ","))
		for i, tp := range tbl.Tuples {
			fmt.Fprintf(&b, "%4d %s\n", i, tp.Key())
		}
	}
	return b.String()
}

// testPrograms are the recursion, negation and comparison shapes the
// condGraph tests evaluate.
var testPrograms = map[string]string{
	"recursive": `
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
	`,
	"negation": `
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
		isolated(a, b) :- node(a), node(b), not reach(a, b).
	`,
	"comparisons": `
		fwd(a, b) :- link(a, b), a < b.
		reach(a, b) :- fwd(a, b).
		reach(a, c) :- fwd(a, b), reach(b, c).
	`,
}

// TestMutualRecursion: two predicates defined in terms of each other
// (same stratum) reach the fixpoint.
func TestMutualRecursion(t *testing.T) {
	db, err := ParseDatabase(`
		num(0). num(1). num(2). num(3). num(4). num(5).
		succ(0, 1). succ(1, 2). succ(2, 3). succ(3, 4). succ(4, 5).
	`)
	if err != nil {
		t.Fatal(err)
	}
	tblEven := evalOne(t, `
		even(0).
		even(y) :- odd(x), succ(x, y).
		odd(y) :- even(x), succ(x, y).
	`, "even", db)
	got := map[string]bool{}
	for _, tp := range tblEven.Tuples {
		got[tp.Values[0].String()] = true
	}
	for _, want := range []string{"0", "2", "4"} {
		if !got[want] {
			t.Errorf("missing even(%s); got %v", want, got)
		}
	}
	for _, bad := range []string{"1", "3", "5"} {
		if got[bad] {
			t.Errorf("spurious even(%s)", bad)
		}
	}
}

// TestTwoRecursiveLiterals: a rule with two occurrences of the
// recursive predicate (non-linear recursion) still converges.
func TestTwoRecursiveLiterals(t *testing.T) {
	db, err := ParseDatabase(`
		link(1, 2). link(2, 3). link(3, 4). link(4, 5).
	`)
	if err != nil {
		t.Fatal(err)
	}
	tbl := evalOne(t, `
		reach(x, y) :- link(x, y).
		reach(x, z) :- reach(x, y), reach(y, z).
	`, "reach", db)
	if tbl.Len() != 10 {
		t.Errorf("closure of a 5-chain should have 10 pairs, got %d", tbl.Len())
	}
}

// TestNegationBeforeBinder: a rule written with the negated literal
// first must still evaluate (the engine reorders positives first).
func TestNegationBeforeBinder(t *testing.T) {
	db, err := ParseDatabase(`
		r(A). r(B).
		s(A).
	`)
	if err != nil {
		t.Fatal(err)
	}
	tbl := evalOne(t, `q(x) :- not s(x), r(x).`, "q", db)
	if tbl.Len() != 1 || !tbl.Tuples[0].Values[0].Equal(cond.Str("B")) {
		t.Errorf("expected q(B), got %v", tbl)
	}
}

// TestNegationOverDerivedConditioned: negation over an IDB predicate
// whose tuples carry conditions produces the negated disjunction.
func TestNegationOverDerivedConditioned(t *testing.T) {
	db, err := ParseDatabase(`
		var $x in {0, 1}.
		base(A)[$x = 1].
		all(A). all(B).
	`)
	if err != nil {
		t.Fatal(err)
	}
	tbl := evalOne(t, `
		d(v) :- base(v).
		q(v) :- all(v), not d(v).
	`, "q", db)
	s := solver.New(db.Doms)
	conds := map[string]*cond.Formula{}
	for _, tp := range tbl.Tuples {
		conds[tp.Values[0].String()] = tp.Condition()
	}
	// q(B) always (d never derives B); q(A) exactly when $x = 0.
	if c, ok := conds["B"]; !ok || !c.IsTrue() {
		t.Errorf("q(B) should be unconditional, got %v", conds["B"])
	}
	wantA := cond.Compare(cond.CVar("x"), cond.Eq, cond.Int(0))
	eq, err := s.Equivalent(conds["A"], wantA)
	if err != nil || !eq {
		t.Errorf("q(A) condition %v, want equivalent to %v", conds["A"], wantA)
	}
}

// TestZeroAryPredicates: 0-ary heads and bodies work (panic queries).
func TestZeroAryPredicates(t *testing.T) {
	db, err := ParseDatabase(`r(A).`)
	if err != nil {
		t.Fatal(err)
	}
	tbl := evalOne(t, `
		hit() :- r(A).
		alarm() :- hit().
	`, "alarm", db)
	if tbl.Len() != 1 || len(tbl.Tuples[0].Values) != 0 {
		t.Errorf("alarm() not derived: %v", tbl)
	}
}

// TestHeadCVar: c-variables in rule heads survive into derived tuples.
func TestHeadCVar(t *testing.T) {
	db, err := ParseDatabase(`
		var $p.
		r(A).
	`)
	if err != nil {
		t.Fatal(err)
	}
	tbl := evalOne(t, `q(x, $p) :- r(x).`, "q", db)
	if tbl.Len() != 1 || !tbl.Tuples[0].Values[1].Equal(cond.CVar("p")) {
		t.Errorf("head c-var lost: %v", tbl)
	}
}

// TestEvalQueryUnknownPredicate is the documented error path.
func TestEvalQueryUnknownPredicate(t *testing.T) {
	db, _ := ParseDatabase(`r(A).`)
	prog := MustParse(`q(x) :- r(x).`)
	if _, _, err := EvalQuery(prog, db, "nope", Options{}); err == nil {
		t.Errorf("unknown predicate should error")
	}
}

// TestMaxIterations: an artificially tiny bound triggers the
// non-convergence error on a recursive program.
func TestMaxIterations(t *testing.T) {
	db, err := ParseDatabase(`
		link(1, 2). link(2, 3). link(3, 4). link(4, 5). link(5, 6).
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog := MustParse(`
		reach(x, y) :- link(x, y).
		reach(x, z) :- link(x, y), reach(y, z).
	`)
	if _, err := Eval(prog, db, Options{MaxIterations: 1}); err == nil {
		t.Errorf("iteration bound should trigger")
	}
	if _, err := Eval(prog, db, Options{MaxIterations: 50}); err != nil {
		t.Errorf("ample bound should converge: %v", err)
	}
}

// TestAbsorptionCountsAndEffect: deriving the same data part under a
// strictly weaker condition gets absorbed.
func TestAbsorptionCountsAndEffect(t *testing.T) {
	db, err := ParseDatabase(`
		var $x in {0, 1}.
		a(V).
		b(V)[$x = 1].
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Rule 1 derives q(V) under true; rule 2 under $x = 1 (implied).
	prog := MustParse(`
		q(v) :- a(v).
		q(v) :- b(v).
	`)
	res, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.Table("q").Len() != 1 {
		t.Errorf("weaker derivation should be absorbed, got %v", res.DB.Table("q"))
	}
	if res.Stats.Absorbed != 1 {
		t.Errorf("Absorbed = %d, want 1", res.Stats.Absorbed)
	}
	// With absorption off both tuples remain.
	res2, err := Eval(prog, db, Options{NoAbsorb: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.DB.Table("q").Len() != 2 {
		t.Errorf("NoAbsorb should keep both tuples, got %v", res2.DB.Table("q"))
	}
}

// TestDerivedShadowsInput: a program deriving into a name that also
// exists as input shadows it in the result (documented behaviour).
func TestDerivedShadowsInput(t *testing.T) {
	db, err := ParseDatabase(`
		r(Old).
		s(New).
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog := MustParse(`r(x) :- s(x).`)
	res, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.DB.Table("r")
	// The derived relation includes the input tuples (the input r is
	// part of the EDB the rules read) plus the new derivation.
	keys := map[string]bool{}
	for _, tp := range tbl.Tuples {
		keys[tp.DataKey()] = true
	}
	if !keys["New"] {
		t.Errorf("derived tuple missing: %v", keys)
	}
}

// TestConditionKeysStableAcrossRuns: evaluation is deterministic.
func TestConditionKeysStableAcrossRuns(t *testing.T) {
	db, err := ParseDatabase(`
		var $x in {0, 1}.
		var $y in {0, 1}.
		link(1, 2)[$x = 1].
		link(2, 3)[$y = 1].
		link(1, 3)[$x = 0].
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog := MustParse(`
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
	`)
	var first string
	for i := 0; i < 5; i++ {
		res, err := Eval(prog, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, tp := range res.DB.Table("reach").Tuples {
			keys = append(keys, tp.Key())
		}
		dump := strings.Join(keys, "\n")
		if i == 0 {
			first = dump
		} else if dump != first {
			t.Fatalf("run %d produced different output:\n%s\nvs\n%s", i, dump, first)
		}
	}
}

// TestReorderBodyMapping: compilation stores the body positives-first
// (stable within each group), so the delta literal r(x), written at
// index 1, is the first positive and every negation comes last.
func TestReorderBodyMapping(t *testing.T) {
	r := compileRule(MustParse(`q(x) :- not s(x), r(x), t(x).`).Rules[0])
	var got []string
	for _, a := range r.body {
		got = append(got, a.String())
	}
	if want := "r(x) t(x) not s(x)"; strings.Join(got, " ") != want {
		t.Errorf("compiled body = %v, want %s", got, want)
	}
}

// TestFormatDatabaseRoundTrip: FormatDatabase output parses back to an
// equivalent database.
func TestFormatDatabaseRoundTrip(t *testing.T) {
	db, err := ParseDatabase(`
		var $x in {0, 1}.
		var $y in {ABC, ADEC}.
		var $u.
		fwd(F0, 1, 2)[$x = 1].
		fwd(F0, 1, 3)[$x = 0 && ($y = ABC || $y = ADEC)].
		pi('1.2.3.4', $u)[$u != 'lower case'].
	`)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatDatabase(db)
	again, err := ParseDatabase(text)
	if err != nil {
		t.Fatalf("round trip parse failed: %v\n%s", err, text)
	}
	if FormatDatabase(again) != text {
		t.Errorf("format not stable:\n%s\nvs\n%s", text, FormatDatabase(again))
	}
	// Same domains.
	if len(again.Doms) != len(db.Doms) {
		t.Errorf("domains lost: %v vs %v", again.Doms, db.Doms)
	}
	// Same tuples per table (by canonical key).
	for name, tbl := range db.Tables {
		at := again.Table(name)
		if at == nil || at.Len() != tbl.Len() {
			t.Fatalf("table %s mismatch", name)
		}
		for i := range tbl.Tuples {
			if tbl.Tuples[i].Key() != at.Tuples[i].Key() {
				t.Errorf("table %s tuple %d: %s vs %s", name, i, tbl.Tuples[i].Key(), at.Tuples[i].Key())
			}
		}
	}
}

// TestStratifySCCOrdering: strata are SCCs in dependency order, so a
// non-recursive consumer of a recursive predicate lands in its own
// later stratum.
func TestStratifySCCOrdering(t *testing.T) {
	prog := MustParse(`
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
		cut(a, b) :- reach(a, b), $x = 1.
		seed(a) :- start(a).
	`)
	strata, err := Stratify(prog)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, group := range strata {
		for _, p := range group {
			pos[p] = i
		}
	}
	if pos["cut"] <= pos["reach"] {
		t.Errorf("cut must come after reach: %v", strata)
	}
	// Each group here is a single predicate (no mutual recursion).
	for _, group := range strata {
		if len(group) != 1 {
			t.Errorf("unexpected multi-predicate stratum: %v", group)
		}
	}
}

// TestStratifyMutualRecursionGroup: mutually recursive predicates
// share one stratum.
func TestStratifyMutualRecursionGroup(t *testing.T) {
	prog := MustParse(`
		even(0).
		even(y) :- odd(x), succ(x, y).
		odd(y) :- even(x), succ(x, y).
		report(x) :- even(x).
	`)
	strata, err := Stratify(prog)
	if err != nil {
		t.Fatal(err)
	}
	var evenOdd, report int = -1, -1
	for i, group := range strata {
		set := map[string]bool{}
		for _, p := range group {
			set[p] = true
		}
		if set["even"] && set["odd"] {
			evenOdd = i
		}
		if set["report"] {
			report = i
		}
		if set["even"] != set["odd"] {
			t.Errorf("even and odd must share a stratum: %v", strata)
		}
	}
	if evenOdd == -1 || report == -1 || report <= evenOdd {
		t.Errorf("report must follow the even/odd clique: %v", strata)
	}
}

// explainRun evaluates prog over db with a fresh provenance recorder
// and returns the result with an explainer over it.
func explainRun(t *testing.T, prog *Program, db *ctable.Database, opts Options) (*Result, *prov.Explainer) {
	t.Helper()
	rec := prov.NewRecorder(0)
	opts.Prov = rec
	res, err := Eval(prog, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, prov.NewExplainer(rec, res.DB)
}

// TestTraceExplain: a provenance-recorded evaluation reconstructs
// derivation trees.
func TestTraceExplain(t *testing.T) {
	db, err := ParseDatabase(`
		var $x in {0, 1}.
		link(1, 2)[$x = 1].
		link(2, 3).
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog := MustParse(`
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
	`)
	res, x := explainRun(t, prog, db, Options{})
	if res.Stats.ProvEdges == 0 {
		t.Fatalf("provenance not recorded")
	}
	// Find reach(1, 3) and explain it: derived from link(1,2) and
	// reach(2,3), which in turn comes from link(2,3).
	var target ctable.Tuple
	found := false
	for _, tp := range res.DB.Table("reach").Tuples {
		if tp.Values[0].Equal(cond.Int(1)) && tp.Values[1].Equal(cond.Int(3)) {
			target, found = tp, true
		}
	}
	if !found {
		t.Fatalf("reach(1,3) missing")
	}
	e := x.Explain("reach", target)
	if e.Rule == "" {
		t.Fatalf("no explanation for reach(1,3): %v", e)
	}
	out := e.String()
	for _, frag := range []string{"reach(1, 3)", "link(1, 2)", "reach(2, 3)", "link(2, 3)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("explanation missing %q:\n%s", frag, out)
		}
	}
	// EDB facts are leaves.
	leaf := x.Explain("link", db.Table("link").Tuples[1])
	if !leaf.EDB || leaf.Rule != "" || len(leaf.Children) != 0 {
		t.Errorf("EDB fact should be a leaf: %+v", leaf)
	}
	// A run without a recorder records nothing.
	res2, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.ProvEdges != 0 {
		t.Errorf("unrecorded run reports %d provenance edges", res2.Stats.ProvEdges)
	}
}

// TestTraceNegation: negated sources appear as annotated leaves.
func TestTraceNegation(t *testing.T) {
	db, err := ParseDatabase(`
		r(A). r(B).
		s(A).
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog := MustParse(`q(x) :- r(x), not s(x).`)
	_, x := explainRun(t, prog, db, Options{})
	exps := x.ExplainAll("q")
	if len(exps) != 1 {
		t.Fatalf("expected one explanation, got %d", len(exps))
	}
	out := exps[0].String()
	if !strings.Contains(out, "not s(") {
		t.Errorf("negated source missing:\n%s", out)
	}
}

// TestResultTableAndParseError covers small accessors.
func TestResultTableAndParseError(t *testing.T) {
	db, _ := ParseDatabase(`r(A).`)
	prog := MustParse(`q(x) :- r(x).`)
	res, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table("q") == nil || res.Table("nope") != nil {
		t.Errorf("Result.Table accessor wrong")
	}
	_, perr := Parse(`q(x :- r(x).`)
	if perr == nil {
		t.Fatal("expected parse error")
	}
	var pe *ParseError
	if !errorsAs(perr, &pe) {
		t.Fatalf("error should be a *ParseError, got %T", perr)
	}
	if pe.Error() == "" || pe.Unwrap() == nil {
		t.Errorf("ParseError accessors wrong")
	}
}

// errorsAs avoids importing errors for one call in this file.
func errorsAs(err error, target **ParseError) bool {
	for err != nil {
		if pe, ok := err.(*ParseError); ok {
			*target = pe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestAllComparisonOperatorsParse covers the operator table.
func TestAllComparisonOperatorsParse(t *testing.T) {
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		src := "q(x) :- r(x), x " + op + " 1."
		if _, err := Parse(src); err != nil {
			t.Errorf("operator %s failed: %v", op, err)
		}
	}
	if _, err := Parse(`q(x) :- r(x), x + 1.`); err == nil {
		t.Errorf("comparison without operator should fail")
	}
}

// TestAbsorbFastPath: a re-derivation whose condition literally
// contains an already-recorded condition as a conjunct must absorb
// without a solver probe.
func TestAbsorbFastPath(t *testing.T) {
	db, err := ParseDatabase(`
		var $l in {0, 1}.
		edge(1, 2).
		gate(1, 2)[$l = 1].
	`)
	if err != nil {
		t.Fatal(err)
	}
	// The first rule derives conn(1,2) under ($l = 1) and records it.
	// The second re-derives it with an extra head conjunct: its
	// condition ($l = 1) ∧ ($m = 1) contains the recorded ($l = 1) as a
	// top-level conjunct, so the syntactic fast path absorbs it without
	// consulting the solver.
	prog := MustParse(`
		conn(a, b) :- gate(a, b).
		conn(a, b)[$m = 1] :- edge(a, b), gate(a, b).
	`)
	db.DeclareVar("m", solver.BoolDomain())
	res, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Absorbed != 1 {
		t.Fatalf("Absorbed = %d, want 1 (conn re-derivation)", res.Stats.Absorbed)
	}
	if res.Stats.AbsorbProbes != 0 {
		t.Fatalf("AbsorbProbes = %d, want 0: the conjunct fast path should bypass the solver", res.Stats.AbsorbProbes)
	}
}

// TestAbsorbSemanticProbeStillCounts: when the fast path cannot
// answer, the semantic probe runs and is counted.
func TestAbsorbSemanticProbeStillCounts(t *testing.T) {
	db, err := ParseDatabase(`
		var $l in {0, 1}.
		a(1)[$l = 0 || $l = 1].
		b(1)[$l = 0].
	`)
	if err != nil {
		t.Fatal(err)
	}
	// q(1) first derives under ($l=0 ∨ $l=1); the b-rule re-derives it
	// under ($l=0), which is semantically implied but shares no
	// syntactic conjunct with the recorded disjunction.
	prog := MustParse(`
		q(x) :- a(x).
		q(x) :- b(x).
	`)
	res, err := Eval(prog, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Absorbed != 1 {
		t.Fatalf("Absorbed = %d, want 1", res.Stats.Absorbed)
	}
	if res.Stats.AbsorbProbes != 1 {
		t.Fatalf("AbsorbProbes = %d, want 1 (semantic probe)", res.Stats.AbsorbProbes)
	}
}
