package faure_test

import (
	"fmt"
	"strings"
	"testing"

	"faure"
)

func quickstartInputs(t *testing.T) (*faure.Database, *faure.Program) {
	t.Helper()
	db, err := faure.ParseDatabase(`
		var $x in {0, 1}.
		fwd(F0, 1, 2)[$x = 1].
		fwd(F0, 1, 3)[$x = 0].
		fwd(F0, 2, 4).
		fwd(F0, 3, 4).
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := faure.Parse(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return db, prog
}

// TestObserverWiring runs the quick-start program under a recording
// observer and checks the span tree and counters an evaluation is
// documented to emit.
func TestObserverWiring(t *testing.T) {
	db, prog := quickstartInputs(t)
	m := faure.NewMetrics()
	res, err := faure.Eval(prog, db, faure.WithObserver(faure.Options{}, m))
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()

	// Span tree: eval → iteration → rule.
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "eval" {
		t.Fatalf("expected a single root eval span, got %+v", snap.Spans)
	}
	root := snap.Spans[0]
	if len(root.Children) == 0 {
		t.Fatal("eval span has no iteration children")
	}
	sawRule := false
	for _, it := range root.Children {
		if it.Name != "iteration" {
			t.Errorf("eval child %q, want iteration", it.Name)
			continue
		}
		for _, r := range it.Children {
			if r.Name != "rule" {
				t.Errorf("iteration child %q, want rule", r.Name)
			}
			for _, a := range r.Attrs {
				if a.Key == "head" && a.Value == "reach" {
					sawRule = true
				}
			}
		}
	}
	if !sawRule {
		t.Error("no rule span with head=reach recorded")
	}

	// Counters must agree with the compatibility Stats view.
	for counter, want := range map[string]int64{
		"eval.derived":            int64(res.Stats.Derived),
		"eval.iterations":         int64(res.Stats.Iterations),
		"eval.sat_calls":          int64(res.Stats.SatCalls),
		"eval.rule_derived.reach": int64(res.Stats.Derived),
	} {
		if got := snap.Counters[counter]; got != want || want == 0 {
			t.Errorf("counter %s = %d, want %d (non-zero)", counter, got, want)
		}
	}
	if snap.Counters["solver.sat_calls"] == 0 {
		t.Error("solver.sat_calls not recorded")
	}
	if _, ok := snap.DurationsMS["eval.sql_time"]; !ok {
		t.Error("eval.sql_time duration not recorded")
	}
	if _, ok := snap.DurationsMS["solver.sat_latency"]; !ok {
		t.Error("solver.sat_latency distribution not recorded")
	}
}

// TestParallelSpanNestingAndCounters checks the span shape and the
// counter totals of a recursive, conditional workload with provenance
// recording on: a single eval root whose iteration children hold only
// leaf rule spans, and eval counters — the provenance ones included —
// that agree with the run's Stats.
func TestParallelSpanNestingAndCounters(t *testing.T) {
	var facts strings.Builder
	facts.WriteString("var $x in {0, 1}.\n")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&facts, "link(%d, %d).\n", i, i+1)
		if i%5 == 0 {
			fmt.Fprintf(&facts, "link(%d, %d)[$x = 1].\n", i, i+3)
		}
	}
	db, err := faure.ParseDatabase(facts.String())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := faure.Parse(`
		reach(a, b) :- link(a, b).
		reach(a, c) :- link(a, b), reach(b, c).
	`)
	if err != nil {
		t.Fatal(err)
	}

	m := faure.NewMetrics()
	opts := faure.WithProvenance(faure.WithObserver(faure.Options{}, m), faure.NewProvenance(0))
	res, err := faure.Eval(prog, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "eval" {
		t.Fatalf("expected a single root eval span, got %+v", snap.Spans)
	}
	for _, it := range snap.Spans[0].Children {
		if it.Name != "iteration" && it.Name != "final-prune" {
			t.Errorf("eval child %q, want iteration or final-prune", it.Name)
			continue
		}
		for _, c := range it.Children {
			switch {
			case c.Name != "rule":
				t.Errorf("iteration child %q, want rule", c.Name)
			case len(c.Children) != 0:
				t.Errorf("leaf span %q has children %+v", c.Name, c.Children)
			}
		}
	}
	st := res.Stats
	for name, want := range map[string]int64{
		"eval.derived":       int64(st.Derived),
		"eval.pruned":        int64(st.Pruned),
		"eval.absorbed":      int64(st.Absorbed),
		"eval.iterations":    int64(st.Iterations),
		"eval.absorb_probes": int64(st.AbsorbProbes),
		"eval.sat_calls":     int64(st.SatCalls),
		"eval.prov_edges":    st.ProvEdges,
		"eval.prov_parents":  st.ProvParents,
	} {
		got := snap.Counters[name]
		if got != want {
			t.Errorf("counter %s = %d, Stats says %d", name, got, want)
		}
		if got == 0 && name != "eval.pruned" && name != "eval.absorbed" {
			t.Errorf("counter %s unexpectedly zero", name)
		}
	}
}

// TestObserverDisabledMatchesEnabled checks observation does not change
// results: same derived tuples and stats counts with and without it.
func TestObserverDisabledMatchesEnabled(t *testing.T) {
	db, prog := quickstartInputs(t)
	plain, err := faure.Eval(prog, db, faure.Options{})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := faure.Eval(prog, db, faure.WithObserver(faure.Options{}, faure.NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := plain.Stats, observed.Stats; a.Derived != b.Derived || a.Pruned != b.Pruned ||
		a.Absorbed != b.Absorbed || a.Iterations != b.Iterations || a.SatCalls != b.SatCalls {
		t.Errorf("stats differ with observer: %+v vs %+v", a, b)
	}
	if a, b := plain.DB.Table("reach"), observed.DB.Table("reach"); len(a.Tuples) != len(b.Tuples) {
		t.Errorf("reach has %d tuples plain, %d observed", len(a.Tuples), len(b.Tuples))
	}
}
