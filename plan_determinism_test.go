package faure_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"faure"
)

// dumpTables renders every table of a database — names, tuple data,
// conditions and row order — into one canonical string, so equality is
// bit-for-bit determinism.
func dumpTables(db *faure.Database) string {
	var names []string
	for name := range db.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "== %s\n", name)
		for i, tp := range db.Tables[name].Tuples {
			fmt.Fprintf(&b, "%5d %s\n", i, tp.Key())
		}
	}
	return b.String()
}

// planWorkloads runs the Table 4 query chain plus the join-stress
// workload under the cost-guided planner, returning the canonical dump
// of every result database keyed by workload name.
func planWorkloads(t *testing.T) map[string]string {
	t.Helper()
	var opts faure.Options

	out := map[string]string{}
	r := faure.GenerateRIB(faure.RIBConfig{Prefixes: 80, PoolSize: 10, Seed: 3})
	fwd := r.ForwardingDatabase()
	reach, err := faure.Eval(faure.ReachabilityProgram(), fwd, opts)
	if err != nil {
		t.Fatalf("q4-q5: %v", err)
	}
	out["q4-q5"] = dumpTables(reach.DB)
	q6, err := faure.Eval(faure.TwoLinkFailureProgram("x", "y", "z"), reach.DB, opts)
	if err != nil {
		t.Fatalf("q6: %v", err)
	}
	out["q6"] = dumpTables(q6.DB)
	q7, err := faure.Eval(faure.PinnedPairFailureProgram(2, 5, "y"), q6.DB, opts)
	if err != nil {
		t.Fatalf("q7: %v", err)
	}
	out["q7"] = dumpTables(q7.DB)
	q8, err := faure.Eval(faure.AtLeastOneFailureProgram(1, "y", "z"), reach.DB, opts)
	if err != nil {
		t.Fatalf("q8: %v", err)
	}
	out["q8"] = dumpTables(q8.DB)

	// The join-stress fixture: multi-way joins over a fat-tree with
	// c-variable link endpoints and indexed negation — the shape the
	// planner actually reorders.
	join, err := faure.Eval(faure.JoinStressProgram(),
		faure.JoinTopology(faure.JoinTopoConfig{Pods: 4, Fanout: 3, Seed: 3}), opts)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if join.Stats.PlansReordered == 0 {
		t.Fatalf("join: the planner reordered nothing, stats=%+v", join.Stats)
	}
	out["join"] = dumpTables(join.DB)
	return out
}

// TestPlanDeterminism is the planner's run-to-run contract: the plan is
// a deterministic function of each round's store snapshot, so two
// evaluations of the same workloads produce bit-for-bit identical
// result databases — tuples, conditions and row order.
func TestPlanDeterminism(t *testing.T) {
	first := planWorkloads(t)
	second := planWorkloads(t)
	for name, want := range first {
		if second[name] != want {
			t.Errorf("%s: tables differ between two planned runs\nfirst:\n%.2000s\nsecond:\n%.2000s",
				name, want, second[name])
		}
	}
}

// TestPlanVerifierVerdicts runs the §5 enterprise verification ladder
// twice under the planner: T1 holds at category-i and T2 at
// category-ii, with the same reason both times.
func TestPlanVerifierVerdicts(t *testing.T) {
	known := []faure.Constraint{faure.Clb(), faure.Cs()}
	update := faure.ListingFourUpdate()
	state := faure.EnterpriseState(false)
	for _, tc := range []struct {
		target faure.Constraint
		level  string
	}{
		{faure.T1(), "category-i"},
		{faure.T2(), "category-ii"},
	} {
		var reasons []string
		for run := 0; run < 2; run++ {
			v := &faure.Verifier{Doms: faure.EnterpriseDomains(), Schema: faure.EnterpriseSchema()}
			rep, level, err := v.Ladder(tc.target, known, &update, state)
			if err != nil {
				t.Fatalf("%s: %v", tc.target.Name, err)
			}
			if rep.Verdict != faure.Holds || level != tc.level {
				t.Errorf("%s run %d: verdict %v at %s, want holds at %s", tc.target.Name, run, rep.Verdict, level, tc.level)
			}
			reasons = append(reasons, rep.Reason)
		}
		if reasons[0] != reasons[1] {
			t.Errorf("%s: reasons differ between runs: %q vs %q", tc.target.Name, reasons[0], reasons[1])
		}
	}
}
