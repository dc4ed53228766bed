package network

import (
	"testing"

	"faure/internal/faurelog"
	"faure/internal/lossless"
)

// TestJoinStressPlanParity: the planner reorders the join-stress rules
// (the bodies are written worst-first), so a variable may be bound
// first to a constant where written order bound it to a c-variable.
// The planned pair, route and avail c-tables must still be loss-less:
// in every world of every topology they instantiate to exactly the
// answer of evaluating that world on its own.
func TestJoinStressPlanParity(t *testing.T) {
	prog := JoinStressProgram()
	for _, pods := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			db := JoinTopology(JoinTopoConfig{Pods: pods, Seed: seed})
			res, err := faurelog.Eval(prog, db, faurelog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PlansReordered == 0 {
				t.Fatalf("pods=%d seed=%d: the planner reordered nothing, stats=%+v", pods, seed, res.Stats)
			}
			mis, err := lossless.Check(prog, db, db.CVars(), 10)
			if err != nil {
				t.Fatalf("pods=%d seed=%d: %v", pods, seed, err)
			}
			for _, m := range mis {
				t.Errorf("pods=%d seed=%d: %v", pods, seed, m)
			}
		}
	}
}

// TestJoinTopologyDeterministic: same seed, same database.
func TestJoinTopologyDeterministic(t *testing.T) {
	a := JoinTopology(JoinTopoConfig{Pods: 3, Fanout: 3, Seed: 7})
	b := JoinTopology(JoinTopoConfig{Pods: 3, Fanout: 3, Seed: 7})
	for _, name := range []string{"link", "down", "host", "core", "dst"} {
		ta, tb := a.Table(name), b.Table(name)
		if ta == nil || tb == nil {
			t.Fatalf("missing table %s", name)
		}
		if ta.String() != tb.String() {
			t.Fatalf("table %s differs across same-seed generations", name)
		}
	}
	if a.Table("link").Len() == 0 || a.Table("dst").Len() == 0 {
		t.Fatal("empty topology")
	}
}
