package main

import (
	"faure"

	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSizes(t *testing.T) {
	sizes, err := parseSizes("100, 200,500")
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 100 || sizes[1] != 200 || sizes[2] != 500 {
		t.Errorf("parseSizes = %v", sizes)
	}
	for _, bad := range []string{"", "abc", "0", "-5", "100,,200"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) should fail", bad)
		}
	}
}

// TestRunJSONReport runs a small sweep end to end and checks the
// machine-readable report against the golden shape: workload counts
// are deterministic given a fixed seed, so everything except the time
// fields is compared exactly.
func TestRunJSONReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run(&buf, []int{50}, 1, 10, false, true, out, faure.Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 4") {
		t.Errorf("table output missing header:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "wrote "+out) {
		t.Errorf("missing report confirmation:\n%s", buf.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}

	// Normalise the timing and intern fields, then compare the rest
	// exactly. Intern counters depend on process history (the global
	// intern table persists across in-process runs, so a warm table
	// shifts hits vs misses), like timing they are checked for sanity
	// rather than exact values.
	if report.Intern.Live <= 0 || report.Intern.Misses <= 0 {
		t.Errorf("intern snapshot not populated: %+v", report.Intern)
	}
	for i := range report.Workloads {
		w := &report.Workloads[i]
		if w.WallMS < w.SQLMS || w.WallMS < w.SolverMS {
			t.Errorf("%s: wall %.3fms below phase times (sql %.3f, solver %.3f)",
				w.Name, w.WallMS, w.SQLMS, w.SolverMS)
		}
		if w.InternHits+w.InternMisses <= 0 || w.InternLive <= 0 {
			t.Errorf("%s: intern counters not populated: %+v", w.Name, w)
		}
		if w.Name == "join" && (w.WallNoPlanMS <= 0 || w.PlanSpeedup <= 0) {
			t.Errorf("join workload missing the -no-plan baseline columns: %+v", w)
		}
		w.WallMS, w.SQLMS, w.SolverMS = 0, 0, 0
		w.InternHits, w.InternMisses, w.InternLive = 0, 0, 0
		w.WallNoPlanMS, w.PlanSpeedup = 0, 0
	}
	golden := benchReport{
		Benchmark: "table4", Seed: 1, Pool: 10,
		// The incremental-solver counters are exact on purpose: every
		// workload must show zero search-reaching decisions (certificates
		// and the fd fast path answer everything at this scale).
		Workloads: []benchWorkload{
			{Name: "q4-q5", Prefixes: 50, Iterations: 6, Derived: 1815, Pruned: 520, AbsorbProbes: 228, SatCalls: 2563, Tuples: 1815,
				SolverCacheHits: 2031, SolverCertHits: 214, SolverFastPathHits: 318,
				StoreProbes: 1815, StoreScans: 2, ProbeHitRatio: 1815.0 / 1817.0, PlansPlanned: 7, PlansReordered: 1},
			{Name: "q6", Prefixes: 50, Iterations: 1, Derived: 1815, AbsorbProbes: 228, SatCalls: 2043, Tuples: 1815,
				SolverCacheHits: 1643, SolverCertHits: 214, SolverFastPathHits: 186,
				StoreScans: 1},
			{Name: "q7", Prefixes: 50, Iterations: 1, Derived: 17, Pruned: 2, AbsorbProbes: 3, SatCalls: 22, Tuples: 17,
				SolverCacheHits: 2, SolverCertHits: 3, SolverFastPathHits: 17,
				StoreProbes: 1, ProbeHitRatio: 1},
			{Name: "q8", Prefixes: 50, Iterations: 1, Derived: 293, AbsorbProbes: 65, SatCalls: 358, Tuples: 293,
				SolverCacheHits: 201, SolverCertHits: 64, SolverFastPathHits: 93,
				StoreProbes: 1, ProbeHitRatio: 1},
			{Name: "join", Prefixes: 50, Iterations: 3, Derived: 1784, Pruned: 2649, Absorbed: 1893, AbsorbProbes: 3054, SatCalls: 8771, Tuples: 1311,
				SolverCacheHits: 7567, SolverCertHits: 18, SolverFastPathHits: 1186,
				StoreProbes: 495, StoreMultiProbes: 95, StoreScans: 11, Intersections: 26,
				ProbeHitRatio: 590.0 / 601.0, PlansPlanned: 2, PlansReordered: 2},
		},
	}
	if len(report.Workloads) != len(golden.Workloads) {
		t.Fatalf("got %d workloads, want %d:\n%s", len(report.Workloads), len(golden.Workloads), raw)
	}
	// The exact counts depend only on the (seeded) workload, so a
	// mismatch means evaluation behaviour changed — compare verbosely.
	for i, got := range report.Workloads {
		if want := golden.Workloads[i]; got != want {
			t.Errorf("workload %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestRunJSONDeterministic checks two runs at the same seed produce
// identical reports once timing is stripped.
func TestRunJSONDeterministic(t *testing.T) {
	read := func(path string) benchReport {
		t.Helper()
		var buf bytes.Buffer
		if err := run(&buf, []int{30}, 7, 10, false, true, path, faure.Options{}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var r benchReport
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		for i := range r.Workloads {
			w := &r.Workloads[i]
			w.WallMS, w.SQLMS, w.SolverMS = 0, 0, 0
			w.WallNoPlanMS, w.PlanSpeedup = 0, 0
			// Intern counters vary with process history (a warm global
			// intern table converts misses into hits); the determinism
			// contract covers the evaluation counters, not them.
			w.InternHits, w.InternMisses, w.InternLive = 0, 0, 0
		}
		return r
	}
	dir := t.TempDir()
	a := read(filepath.Join(dir, "a.json"))
	b := read(filepath.Join(dir, "b.json"))
	if len(a.Workloads) != len(b.Workloads) {
		t.Fatalf("workload counts differ: %d vs %d", len(a.Workloads), len(b.Workloads))
	}
	for i := range a.Workloads {
		if a.Workloads[i] != b.Workloads[i] {
			t.Errorf("workload %d differs across runs:\n%+v\n%+v", i, a.Workloads[i], b.Workloads[i])
		}
	}
}

// TestRunProvReport checks the -prov path: wiring a recorder into the
// options populates the provenance counters of every workload, and the
// counters survive the JSON round trip.
func TestRunProvReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "prov.json")
	var buf bytes.Buffer
	rec := faure.NewProvenance(0)
	if err := run(&buf, []int{30}, 1, 10, false, true, out, faure.WithProvenance(faure.Options{}, rec)); err != nil {
		t.Fatal(err)
	}
	report, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, w := range report.Workloads {
		if w.ProvEdges <= 0 {
			t.Errorf("%s: no provenance edges recorded: %+v", w.Name, w)
		}
		total += w.ProvEdges
	}
	if got := rec.Stats().Recorded; got != total {
		t.Errorf("recorder saw %d edges, workloads report %d", got, total)
	}
}

// TestCompareReports exercises the -baseline regression gate: matching
// by name and prefix count, the jitter floor, and the threshold.
func TestCompareReports(t *testing.T) {
	wl := func(name string, prefixes int, wall float64) benchWorkload {
		return benchWorkload{Name: name, Prefixes: prefixes, WallMS: wall}
	}
	base := benchReport{Workloads: []benchWorkload{
		wl("q4-q5", 100, 100), wl("q6", 100, 40), wl("tiny", 100, 5), wl("gone", 100, 80),
	}}
	head := benchReport{Workloads: []benchWorkload{
		wl("q4-q5", 100, 130), // +30% — regression at 25%
		wl("q6", 100, 49),     // +22.5% — within threshold
		wl("tiny", 100, 500),  // below the baseline floor — exempt
		wl("new", 100, 999),   // not in the baseline — skipped
	}}
	got := compareReports(base, head, 25, 20)
	if len(got) != 1 || !strings.Contains(got[0], "q4-q5") {
		t.Fatalf("compareReports = %v, want exactly the q4-q5 regression", got)
	}
	if !strings.Contains(got[0], "+30%") {
		t.Errorf("regression line should carry the percentage: %q", got[0])
	}
	if got := compareReports(base, head, 35, 20); len(got) != 0 {
		t.Errorf("at a 35%% threshold nothing should regress, got %v", got)
	}
}

// TestCheckBaseline runs the gate end to end: a report compared against
// itself passes; against a doctored faster baseline it fails non-nil.
func TestCheckBaseline(t *testing.T) {
	dir := t.TempDir()
	head := filepath.Join(dir, "head.json")
	var buf bytes.Buffer
	if err := run(&buf, []int{50}, 1, 10, false, true, head, faure.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := checkBaseline(&buf, head, head, 25); err != nil {
		t.Errorf("self-comparison should pass: %v", err)
	}
	if !strings.Contains(buf.String(), "baseline check passed") {
		t.Errorf("missing pass confirmation:\n%s", buf.String())
	}
	report, err := readReport(head)
	if err != nil {
		t.Fatal(err)
	}
	// Doctor the baseline so every real workload appears to have been
	// much faster before, forcing the gate to trip.
	for i := range report.Workloads {
		report.Workloads[i].WallMS /= 10
		if report.Workloads[i].WallMS < regressFloorMS {
			report.Workloads[i].WallMS = regressFloorMS
		}
	}
	base := filepath.Join(dir, "base.json")
	if err := writeReport(base, report); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err = checkBaseline(&buf, base, head, 25)
	if err == nil {
		t.Fatal("doctored baseline should fail the gate")
	}
	if !strings.Contains(buf.String(), "REGRESSION:") {
		t.Errorf("missing regression lines:\n%s", buf.String())
	}
}

// TestRunAblations smoke-tests the -ablate path.
func TestRunAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations sweep in -short mode")
	}
	var buf bytes.Buffer
	if err := run(&buf, []int{30}, 1, 10, true, false, "", faure.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"baseline", "no-absorb", "no-eager-prune", "no-index", "no-solver-cache"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

// TestJoinRunsOncePerHostCount: sweep sizes that map to the same
// join-stress host count run the join workload once — at or above the
// 1000-host cap every size would otherwise repeat one topology and
// report identical counters.
func TestJoinRunsOncePerHostCount(t *testing.T) {
	if joinHosts(1000) != joinHosts(10000) || joinHosts(40) != 40 {
		t.Fatalf("joinHosts: 1000->%d 10000->%d 40->%d", joinHosts(1000), joinHosts(10000), joinHosts(40))
	}
	out := filepath.Join(t.TempDir(), "dup.json")
	var buf bytes.Buffer
	if err := run(&buf, []int{20, 20}, 1, 10, false, true, out, faure.Options{}); err != nil {
		t.Fatal(err)
	}
	report, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	for _, w := range report.Workloads {
		if w.Name == "join" {
			joins++
		}
	}
	if len(report.Workloads) != 9 || joins != 1 {
		t.Fatalf("got %d workloads with %d join runs, want 9 with 1", len(report.Workloads), joins)
	}
	if n := strings.Count(buf.String(), "  join   prefixes="); n != 1 {
		t.Errorf("join summary printed %d times, want once:\n%s", n, buf.String())
	}
}

// TestBaselineLoadsCommittedReport: the committed BENCH_faurelog.json
// (written before the report dropped its "workers" field, and with one
// join run per sweep size) still loads as a -baseline, and every
// workload present in both it and a fresh-shaped report is compared.
func TestBaselineLoadsCommittedReport(t *testing.T) {
	base, err := readReport(filepath.Join("..", "..", "BENCH_faurelog.json"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Benchmark != "table4" || len(base.Workloads) == 0 {
		t.Fatalf("committed report did not load: %+v", base)
	}
	// A head report as the sweep now writes it — one join run in all —
	// with every workload twice as slow in both phases, so each phase
	// above the jitter floor must regress.
	var head benchReport
	seenJoin := false
	want := 0
	for _, w := range base.Workloads {
		if w.Name == "join" {
			if seenJoin {
				continue
			}
			seenJoin = true
		}
		for _, ms := range []float64{w.WallMS, w.SolverMS} {
			if ms >= regressFloorMS {
				want++
			}
		}
		w.WallMS, w.SolverMS = 2*w.WallMS, 2*w.SolverMS
		head.Workloads = append(head.Workloads, w)
	}
	if got := compareReports(base, head, 25, regressFloorMS); len(got) != want || want == 0 {
		t.Fatalf("compared %d phases, want %d:\n%s", len(got), want, strings.Join(got, "\n"))
	}
}
