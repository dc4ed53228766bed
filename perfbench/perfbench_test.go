package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/network"
	"faure/internal/rib"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if job := os.Getenv(childEnv); job != "" {
		os.Exit(childMain(job))
	}
	os.Exit(m.Run())
}

func smoke(t *testing.T, workload string, trace bool) (config, result) {
	t.Helper()
	cfg := config{Workload: workload, Seed: 3, Seconds: 2, Trace: trace, Smoke: true, Out: t.TempDir()}
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", workload, res.Correct, res.Attempted, res.Failed, res.errors)
	}
	return cfg, res
}

// Every workload reports every end-to-end metric, each measured (never
// 0), and every per-layer metric under its defined unit.
func TestSmokeWorkloads(t *testing.T) {
	for w := range workloads {
		_, res := smoke(t, w, false)
		for _, d := range endToEnd {
			got, ok := res.Metrics[d.name]
			if !ok || got.Unit != d.unit || got.Value <= 0 || math.IsNaN(got.Value) {
				t.Errorf("%s: %s = %+v", w, d.name, got)
			}
		}
		if ok := res.Metrics["ok_frac"].Value; ok != 1 {
			t.Errorf("%s: ok_frac = %v", w, ok)
		}
		_, res = smoke(t, w, true)
		for _, d := range perLayer {
			if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit || math.IsNaN(got.Value) {
				t.Errorf("%s traced: %s = %+v", w, d.name, got)
			}
		}
	}
}

// The traced run's layers add up: the per-query Eval times and the
// relational + solver + load/export split both sum to the same total,
// and the trace file gives every layer a self time.
func TestTraceAccounting(t *testing.T) {
	layers := map[string][]string{
		"table4-rib":   {"rib", "faurelog", "solver", "relstore", "cond", "rewrite", "runtime"},
		"fattree-join": {"network", "faurelog", "solver", "relstore", "cond", "rewrite", "runtime"},
		"serve-mixed":  {"rib", "network", "serve", "faurelog", "rewrite", "verify", "containment", "runtime"},
	}
	for w, want := range layers {
		cfg, res := smoke(t, w, true)
		v := func(n string) float64 { return res.Metrics[n].Value }
		if w != "serve-mixed" {
			queries := v("faurelog.q4q5_ms") + v("faurelog.q6_ms") + v("faurelog.q7_ms") + v("faurelog.q8_ms") + v("faurelog.join_ms")
			split := v("faurelog.rel_ms") + v("solver.ms") + v("faurelog.load_export_ms")
			if queries <= 0 || math.Abs(queries-split) > 1e-6*queries {
				t.Errorf("%s: queries sum to %v ms, rel+solver+load_export to %v ms", w, queries, split)
			}
		}
		b, err := os.ReadFile(filepath.Join(cfg.Out, "traces", w+"-seed3.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			Summary traceSummary `json:"summary"`
			Spans   []Span       `json:"spans"`
		}
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Fatal(err)
		}
		for _, l := range want {
			if tr.Summary.SelfMS[l] <= 0 {
				t.Errorf("%s: no self time for layer %s: %v", w, l, tr.Summary.SelfMS)
			}
		}
		if f := tr.Summary.UnattributedFrac; f < 0 || f > 1 {
			t.Errorf("%s: unattributed_frac = %v", w, f)
		}
	}
}

// Each batch iteration runs in a fresh process, so its counters do not
// depend on which workload ran before it.
func TestBatchIterationsIsolated(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{Workload: "fattree-join", Seed: 5, Smoke: true, Out: t.TempDir()}
	alone, err := runChild(exe, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Workload = "table4-rib"
	if _, err := runChild(exe, other, 0); err != nil {
		t.Fatal(err)
	}
	after, err := runChild(exe, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if alone.Stats.InternMisses == 0 {
		t.Fatalf("no intern misses: the table did not start empty")
	}
	a, b := alone.Stats, after.Stats
	a.RelMS, a.SolverMS, b.RelMS, b.SolverMS = 0, 0, 0, 0
	if a != b {
		t.Errorf("counters depend on the previous workload:\nalone %+v\nafter %+v", a, b)
	}
}

// dropRow returns db with one row of the named table gone from world
// w: every tuple carrying the data of the first tuple present in w.
func dropRow(t *testing.T, db *ctable.Database, name string, w world) *ctable.Database {
	t.Helper()
	tbl := db.Table(name)
	key := ""
	for _, tp := range tbl.Tuples {
		if tp.Condition().EvalPartial(w.lookup) == 1 {
			key = tp.DataKey()
			break
		}
	}
	if key == "" {
		t.Fatalf("%s: no tuple present in the world", name)
	}
	bad := tbl.Clone()
	bad.Tuples = nil
	for _, tp := range tbl.Tuples {
		if tp.DataKey() != key {
			bad.Tuples = append(bad.Tuples, tp)
		}
	}
	out := ctable.NewDatabase()
	for _, tbl := range db.Tables {
		out.AddTable(tbl)
	}
	out.Doms = db.Doms
	out.AddTable(bad)
	return out
}

// The answer check passes on the program's output and fails when one
// tuple is missing or one verdict is wrong.
func TestCheckCatchesCorruption(t *testing.T) {
	gen := rib.Generate(rib.Config{Prefixes: 60, PoolSize: 10, Seed: 2})
	in := gen.ForwardingDatabase()
	eval := func(p *faurelog.Program, db *ctable.Database) *ctable.Database {
		res, err := faurelog.Eval(p, db, faurelog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.DB
	}
	var out table4Out
	out.reach = eval(network.ReachabilityProgram(), in)
	out.q6 = eval(network.TwoLinkFailureProgram("x", "y", "z"), out.reach)
	out.q7 = eval(network.PinnedPairFailureProgram(q7Src, q7Dst, "y"), out.q6)
	out.q8 = eval(network.AtLeastOneFailureProgram(q8Src, "y", "z"), out.reach)
	r := newBatchRun(config{Seed: 2}, 0)
	worlds := r.checkWorlds(in)
	flows := map[string]bool{}
	for _, e := range gen.Entries {
		flows[e.Prefix] = true
	}
	if errs := checkTable4(in, out, worlds, flows); len(errs) != 0 {
		t.Fatalf("check fails on the program's own output: %v", errs)
	}
	for _, name := range []string{"reach", "t1", "t3"} {
		bad := out
		db := map[string]**ctable.Database{"reach": &bad.reach, "t1": &bad.q6, "t3": &bad.q8}[name]
		*db = dropRow(t, *db, name, worlds[0])
		if errs := checkTable4(in, bad, worlds, flows); len(errs) == 0 {
			t.Errorf("check passes with one %s tuple missing", name)
		}
	}

	topo := network.JoinTopology(network.JoinTopoConfig{Pods: 3, Fanout: 3, Seed: 2})
	pairs := eval(network.JoinStressProgram(), topo)
	hosts := map[int64]bool{}
	for _, tp := range topo.Table("host").Tuples {
		hosts[tp.Values[0].I] = true
	}
	jw := r.checkWorlds(topo)
	if errs := checkJoin(topo, pairs, jw, hosts); len(errs) != 0 {
		t.Fatalf("join check fails on the program's own output: %v", errs)
	}
	bad := dropRow(t, pairs, "pair", jw[0])
	if errs := checkJoin(topo, bad, jw, hosts); len(errs) == 0 {
		t.Errorf("join check passes with one pair tuple missing")
	}

	env := &serveEnv{}
	env.want.verdict[readSelfLoop], env.want.level[readSelfLoop] = "holds", "direct"
	right := outcome{req: request{read: readSelfLoop}, status: 200, body: []byte(`{"verdict":"holds","level":"direct"}`)}
	wrong := outcome{req: request{read: readSelfLoop}, status: 200, body: []byte(`{"verdict":"violated","level":"direct"}`)}
	if msg := env.checkOutcome(&right); msg != "" {
		t.Errorf("right verdict rejected: %s", msg)
	}
	if msg := env.checkOutcome(&wrong); msg == "" {
		t.Errorf("wrong verdict accepted")
	}
}
