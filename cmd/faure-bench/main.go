// Command faure-bench regenerates the paper's Table 4: running time of
// the Listing 2 reachability analyses (recursive q4–q5 and the failure
// patterns q6–q8) over forwarding state derived from a synthetic BGP
// RIB, with the relational ("sql") and condition-solving ("Z3" in the
// paper, our solver here) phases reported separately.
//
//	faure-bench -prefixes 1000,10000 [-seed 1] [-pool 10] [-ablate]
//	faure-bench -prefixes 1000 -json [-out BENCH_faurelog.json]
//	faure-bench -prefixes 1000 -baseline BENCH_faurelog.json [-regress-pct 25]
//
// With -json the run also writes a machine-readable report (per
// workload: wall/sql/solver time, iterations, derived/pruned/absorbed
// tuple counts, solver calls) for tracking across commits.
//
// With -baseline the fresh report is compared against a previously
// written one: any workload whose wall time regressed by more than
// -regress-pct percent (default 25) is reported and the command exits
// non-zero, which is how CI gates performance regressions.
//
// The paper's largest input (922067 prefixes, the full route-views
// RIB) is supported but takes correspondingly long; pass it
// explicitly: -prefixes 922067.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"faure"
	"faure/internal/obsflag"
)

func main() {
	prefixes := flag.String("prefixes", "1000,10000", "comma-separated prefix counts to sweep")
	seed := flag.Int64("seed", 1, "workload seed")
	pool := flag.Int("pool", 10, "link-state variable pool size (>= 3)")
	ablate := flag.Bool("ablate", false, "also run the design-choice ablations at the first prefix count")
	jsonOut := flag.Bool("json", false, "write a machine-readable report")
	outPath := flag.String("out", "BENCH_faurelog.json", "report path for -json")
	provCap := flag.Int("prov", 0, "record derivation provenance: >0 bounds the flight recorder to N edges, <0 keeps all, 0 disables")
	baseline := flag.String("baseline", "", "compare against this earlier -json report and fail on wall-time regressions")
	regressPct := flag.Float64("regress-pct", 25, "per-workload wall-time regression threshold for -baseline, in percent")
	ob := obsflag.Register(flag.CommandLine)
	flag.Parse()

	sizes, err := parseSizes(*prefixes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faure-bench:", err)
		os.Exit(obsflag.ExitUsage)
	}
	if err := ob.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "faure-bench:", err)
		os.Exit(obsflag.ExitError)
	}
	opts := faure.Options{Observer: ob.Observer(), Budget: ob.Budget(), NoPlan: ob.NoPlan()}
	if *provCap != 0 {
		capN := *provCap
		if capN < 0 {
			capN = 0 // NewProvenance treats 0 as unbounded.
		}
		opts = faure.WithProvenance(opts, faure.NewProvenance(capN))
	}
	// -baseline needs the fresh report on disk to compare against.
	writeJSON := *jsonOut || *baseline != ""
	err = run(os.Stdout, sizes, *seed, *pool, *ablate, writeJSON, *outPath, opts)
	if err == nil && *baseline != "" {
		err = checkBaseline(os.Stdout, *baseline, *outPath, *regressPct)
	}
	_ = ob.Close(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faure-bench:", err)
		os.Exit(obsflag.ExitCode(err))
	}
}

// regressFloorMS exempts workloads whose baseline wall time is below
// this from the -baseline comparison: at sub-20ms scale the scheduler
// jitter dwarfs any real regression and the gate would flap.
const regressFloorMS = 20.0

// checkBaseline loads the two reports and fails (non-nil error, so
// main exits 1) when any workload regressed past the threshold.
func checkBaseline(w io.Writer, basePath, headPath string, pct float64) error {
	base, err := readReport(basePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	head, err := readReport(headPath)
	if err != nil {
		return fmt.Errorf("head report: %w", err)
	}
	regressions := compareReports(base, head, pct, regressFloorMS)
	if len(regressions) == 0 {
		fmt.Fprintf(w, "baseline check passed: no workload regressed by more than %.0f%% vs %s\n", pct, basePath)
		return nil
	}
	for _, r := range regressions {
		fmt.Fprintln(w, "REGRESSION:", r)
	}
	return fmt.Errorf("%d workload(s) regressed by more than %.0f%% vs %s", len(regressions), pct, basePath)
}

// compareReports matches workloads by (name, prefixes) and returns one
// line per regression beyond pct percent, on wall time and on the
// solver phase separately — a solver regression hidden inside a flat
// wall time (relational noise moving the other way) still trips the
// gate. Phases below floorMS in the baseline, or workloads present in
// only one report, are skipped — the gate watches known workloads
// large enough to time reliably.
func compareReports(base, head benchReport, pct, floorMS float64) []string {
	type key struct {
		name     string
		prefixes int
	}
	baseBy := make(map[key]benchWorkload, len(base.Workloads))
	for _, wl := range base.Workloads {
		baseBy[key{wl.Name, wl.Prefixes}] = wl
	}
	var regressions []string
	for _, h := range head.Workloads {
		b, ok := baseBy[key{h.Name, h.Prefixes}]
		if !ok {
			continue
		}
		for _, m := range []struct {
			phase      string
			base, head float64
		}{
			{"wall", b.WallMS, h.WallMS},
			{"solver", b.SolverMS, h.SolverMS},
		} {
			if m.base < floorMS {
				continue
			}
			if m.head > m.base*(1+pct/100) {
				regressions = append(regressions,
					fmt.Sprintf("%s prefixes=%d %s %.1fms -> %.1fms (+%.0f%%, limit +%.0f%%)",
						h.Name, h.Prefixes, m.phase, m.base, m.head, (m.head/m.base-1)*100, pct))
			}
		}
	}
	return regressions
}

// readReport loads a previously written -json report.
func readReport(path string) (benchReport, error) {
	var r benchReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// parseSizes reads the -prefixes sweep list.
func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad prefix count %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// benchWorkload is one query at one prefix count in the JSON report.
type benchWorkload struct {
	Name       string  `json:"name"`
	Prefixes   int     `json:"prefixes"`
	WallMS     float64 `json:"wall_ms"`
	SQLMS      float64 `json:"sql_ms"`
	SolverMS   float64 `json:"solver_ms"`
	Iterations int     `json:"iterations"`
	Derived    int     `json:"derived"`
	Pruned     int     `json:"pruned"`
	Absorbed   int     `json:"absorbed"`
	// AbsorbProbes counts absorption checks that fell through the
	// syntactic fast path to a semantic solver probe.
	AbsorbProbes int `json:"absorb_probes"`
	SatCalls     int `json:"sat_calls"`
	// Incremental-solver counters: exact-key certificate hits, related-
	// certificate hits (base-witness replay / DAG propagation), compiled
	// finite-domain fast-path hits, decisions that reached actual
	// search, certificate-store evictions, and the headline ratio
	// solver_searches / derived (well below 1 when certificates carry
	// the run).
	SolverCacheHits    int     `json:"solver_cache_hits"`
	SolverCertHits     int     `json:"solver_cert_hits"`
	SolverFastPathHits int     `json:"solver_fastpath_hits"`
	SolverSearches     int     `json:"solver_searches"`
	MemoEvictions      int64   `json:"memo_evictions"`
	SatCallsPerDerived float64 `json:"sat_calls_per_derived"`
	Tuples             int     `json:"tuples"`
	// Intern counters: condition intern-table hit/miss deltas
	// attributed to this workload's evaluation and the table's live
	// node count when it finished (process-wide, monotonic across the
	// sweep).
	InternHits   int64 `json:"intern_hits"`
	InternMisses int64 `json:"intern_misses"`
	InternLive   int64 `json:"intern_live"`
	// Store access counters: indexed probes (single- and
	// multi-column), deliberate full scans, degraded probes that fell
	// back to a scan, multi-column bucket intersections, and the
	// fraction of accesses an index answered.
	StoreProbes      int64   `json:"store_probes"`
	StoreMultiProbes int64   `json:"store_multi_probes"`
	StoreScans       int64   `json:"store_scans"`
	StoreFallbacks   int64   `json:"store_fallback_scans"`
	Intersections    int64   `json:"store_intersections"`
	ProbeHitRatio    float64 `json:"probe_hit_ratio"`
	// Plan counters: rule bodies the cost-guided planner considered
	// and how many it reordered away from written order.
	PlansPlanned   int64 `json:"plans_planned"`
	PlansReordered int64 `json:"plans_reordered"`
	// Provenance counters, present only when the sweep ran with -prov:
	// derivation edges and parent references recorded, and edges a
	// bounded flight recorder overwrote.
	ProvEdges   int64 `json:"prov_edges,omitempty"`
	ProvParents int64 `json:"prov_parents,omitempty"`
	ProvEvicted int64 `json:"prov_evicted,omitempty"`
	// WallNoPlanMS and PlanSpeedup are set on the join workload: the
	// same run with -no-plan (written-order evaluation) and the ratio
	// wall_noplan_ms / wall_ms.
	WallNoPlanMS float64 `json:"wall_noplan_ms,omitempty"`
	PlanSpeedup  float64 `json:"plan_speedup,omitempty"`
}

// benchReport is the top-level JSON document.
type benchReport struct {
	Benchmark string `json:"benchmark"`
	Seed      int64  `json:"seed"`
	Pool      int    `json:"pool"`
	// Truncated names the budget that cut the sweep short ("" when the
	// sweep completed); the workloads list then holds what finished.
	Truncated string          `json:"truncated,omitempty"`
	Workloads []benchWorkload `json:"workloads"`
	// Intern is the final process-wide snapshot of the condition
	// intern table (hash-consed formula DAG).
	Intern benchIntern `json:"intern"`
}

// benchIntern mirrors faure.InternStats in the JSON schema.
type benchIntern struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Live      int64 `json:"live"`
	Evictions int64 `json:"evictions"`
}

// run executes the sweep (and optional ablations), prints the Table 4
// layout to w, and writes the JSON report when requested. A budget trip
// stops the sweep, keeps the completed rows (printed and reported) and
// surfaces as the returned budget error so main exits with code 3.
func run(w io.Writer, sizes []int, seed int64, pool int, ablate, jsonOut bool, outPath string, opts faure.Options) error {
	var results []*faure.Table4Result
	// joins[i] is the join-planner stress workload sizes[i] introduced —
	// the measured run and its written-order (-no-plan) counterpart —
	// or nil when an earlier size already ran the same host count (see
	// joinHosts).
	var joins []*joinRun
	joinSeen := map[int]bool{}
	var truncated *faure.BudgetExceeded
	for _, n := range sizes {
		res, err := faure.RunTable4(faure.Table4Config{Prefixes: n, Seed: seed, PoolSize: pool, Options: opts})
		if err != nil {
			return err
		}
		results = append(results, res)
		if res.Truncated != nil {
			truncated = res.Truncated
			break
		}
		hosts := joinHosts(n)
		if joinSeen[hosts] {
			joins = append(joins, nil)
			continue
		}
		joinSeen[hosts] = true
		jr, err := runJoin(n, hosts, seed, opts)
		if err != nil {
			return err
		}
		joins = append(joins, jr)
		if jr.truncated != nil {
			truncated = jr.truncated
			break
		}
	}
	fmt.Fprintln(w, "Table 4: running time of reachability analysis (synthetic RIB workload)")
	fmt.Fprint(w, faure.FormatTable4(results))
	if len(joins) > 0 {
		fmt.Fprintln(w, "join-stress workload (fat-tree multi-way join, cost-guided planner):")
		for _, j := range joins {
			if j == nil {
				continue
			}
			row := j.res.Row
			fmt.Fprintf(w, "  join   prefixes=%-8d hosts=%-6d wall=%v tuples=%d probes=%d multi=%d scans=%d",
				j.prefixes, j.res.Hosts, row.Wall, row.Tuples,
				row.StoreProbes, row.StoreMultiProbes, row.StoreScans)
			if j.noPlan != nil && row.Wall > 0 {
				fmt.Fprintf(w, " wall_noplan=%v plan_speedup=%.2fx",
					j.noPlan.Row.Wall, float64(j.noPlan.Row.Wall)/float64(row.Wall))
			}
			fmt.Fprintln(w)
		}
	}
	if truncated != nil {
		fmt.Fprintf(w, "(sweep truncated: %v)\n", truncated)
		ablate = false
	}

	if ablate {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Ablations (prefix count =", sizes[0], "):")
		variants := []struct {
			name string
			opts faure.Options
		}{
			{"baseline", faure.Options{}},
			{"no-absorb", faure.Options{NoAbsorb: true}},
			{"no-eager-prune", faure.Options{NoEagerPrune: true}},
			{"no-index", faure.Options{NoIndex: true}},
			{"no-solver-cache", faure.Options{NoSolverCache: true}},
		}
		for _, v := range variants {
			res, err := faure.RunTable4(faure.Table4Config{Prefixes: sizes[0], Seed: seed, PoolSize: pool, Options: v.opts})
			if err != nil {
				return err
			}
			total := res.Rows[0].SQL + res.Rows[0].Solver
			for _, r := range res.Rows[1:] {
				total += r.SQL + r.Solver
			}
			fmt.Fprintf(w, "  %-16s total=%v (q4-q5 sql=%v solver=%v, tuples=%d)\n",
				v.name, total, res.Rows[0].SQL, res.Rows[0].Solver, res.Rows[0].Tuples)
		}
	}

	if jsonOut {
		report := buildReport(results, joins, seed, pool)
		if truncated != nil {
			report.Truncated = truncated.Error()
		}
		if err := writeReport(outPath, report); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s (%d workloads)\n", outPath, len(report.Workloads))
	}
	if truncated != nil {
		return truncated
	}
	return nil
}

// joinRun is the join-stress workload at one host count: the sweep
// size that first reached it, the measured run and its written-order
// (-no-plan) counterpart for the plan-speedup column.
type joinRun struct {
	prefixes  int
	res       *faure.JoinStressResult
	noPlan    *faure.JoinStressResult
	truncated *faure.BudgetExceeded
}

// joinHosts is the join-stress host count for a sweep size: the prefix
// count, capped at 1000. The written-order (-no-plan) baseline the
// workload exists to measure is quadratic in the host count, so larger
// sweeps would spend the whole budget in the baseline run. Sizes that
// reach the cap share one topology, so the sweep runs it once.
func joinHosts(prefixes int) int { return min(prefixes, 1000) }

// runJoin executes the join-stress workload at one host count; the
// printed summary reports the actual host count next to the sweep size.
func runJoin(prefixes, hosts int, seed int64, opts faure.Options) (*joinRun, error) {
	jr := &joinRun{prefixes: prefixes}
	res, err := faure.RunJoinStress(faure.JoinStressConfig{Hosts: hosts, Seed: seed, Options: opts})
	if err != nil {
		return nil, err
	}
	jr.res = res
	if res.Truncated != nil {
		jr.truncated = res.Truncated
		return jr, nil
	}
	npOpts := opts
	npOpts.NoPlan = true
	jr.noPlan, err = faure.RunJoinStress(faure.JoinStressConfig{Hosts: hosts, Seed: seed, Options: npOpts})
	if err != nil {
		return jr, err
	}
	return jr, nil
}

// workloadFromRow converts one query's measurements into the JSON
// workload entry.
func workloadFromRow(row faure.Table4Row, prefixes int) benchWorkload {
	return benchWorkload{
		Name:         row.Query,
		Prefixes:     prefixes,
		WallMS:       float64(row.Wall.Microseconds()) / 1000,
		SQLMS:        float64(row.SQL.Microseconds()) / 1000,
		SolverMS:     float64(row.Solver.Microseconds()) / 1000,
		Iterations:   row.Iterations,
		Derived:      row.Derived,
		Pruned:       row.Pruned,
		Absorbed:     row.Absorbed,
		AbsorbProbes: row.AbsorbProbes,
		SatCalls:     row.SatCalls,

		SolverCacheHits:    row.SolverCacheHits,
		SolverCertHits:     row.SolverCertHits,
		SolverFastPathHits: row.SolverFastPathHits,
		SolverSearches:     row.SolverSearches,
		MemoEvictions:      row.MemoEvictions,
		SatCallsPerDerived: row.SatCallsPerDerived,

		Tuples:       row.Tuples,
		InternHits:   row.InternHits,
		InternMisses: row.InternMisses,
		InternLive:   row.InternLive,

		StoreProbes:      row.StoreProbes,
		StoreMultiProbes: row.StoreMultiProbes,
		StoreScans:       row.StoreScans,
		StoreFallbacks:   row.StoreFallbacks,
		Intersections:    row.Intersections,
		ProbeHitRatio:    row.ProbeHitRatio,
		PlansPlanned:     row.PlansPlanned,
		PlansReordered:   row.PlansReordered,
		ProvEdges:        row.ProvEdges,
		ProvParents:      row.ProvParents,
		ProvEvicted:      row.ProvEvicted,
	}
}

// buildReport converts the sweep results into the JSON document: each
// size's Table 4 rows, followed by the join-stress run that size
// introduced (if any).
func buildReport(results []*faure.Table4Result, joins []*joinRun, seed int64, pool int) benchReport {
	report := benchReport{Benchmark: "table4", Seed: seed, Pool: pool}
	for i, res := range results {
		for _, row := range res.Rows {
			report.Workloads = append(report.Workloads, workloadFromRow(row, res.Prefixes))
		}
		if i < len(joins) && joins[i] != nil {
			j := joins[i]
			wl := workloadFromRow(j.res.Row, j.prefixes)
			if j.noPlan != nil {
				wl.WallNoPlanMS = float64(j.noPlan.Row.Wall.Microseconds()) / 1000
				if j.res.Row.Wall > 0 {
					wl.PlanSpeedup = float64(j.noPlan.Row.Wall) / float64(j.res.Row.Wall)
				}
			}
			report.Workloads = append(report.Workloads, wl)
		}
	}
	is := faure.CondInternStats()
	report.Intern = benchIntern{Hits: is.Hits, Misses: is.Misses, Live: is.Live, Evictions: is.Evictions}
	return report
}

// writeReport marshals the report with stable indentation.
func writeReport(path string, report benchReport) error {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
