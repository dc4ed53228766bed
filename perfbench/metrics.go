package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"faure/internal/relstore"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; only the untraced run
// reports it. See README.md for how each applies to each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"eval_s", "s"},
	{"live_heap_mb", "MB"},
	{"ok_frac", "frac"},
	{"read_p50_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"update_p90_ms", "ms"},
}

// perLayer is what the traced run reports, one layer at a time.
var perLayer = []metricDef{
	{"rib.setup_ms", "ms"},
	{"network.setup_ms", "ms"},
	{"faurelog.q4q5_ms", "ms"},
	{"faurelog.q6_ms", "ms"},
	{"faurelog.q7_ms", "ms"},
	{"faurelog.q8_ms", "ms"},
	{"faurelog.join_ms", "ms"},
	{"faurelog.rel_ms", "ms"},
	{"faurelog.load_export_ms", "ms"},
	{"faurelog.iterations", "count"},
	{"faurelog.derived", "count"},
	{"faurelog.pruned", "count"},
	{"faurelog.absorbed", "count"},
	{"faurelog.absorb_probes", "count"},
	{"faurelog.plans_reordered", "count"},
	{"faurelog.kept_ratio", "frac"},
	{"faurelog.incr_ms", "ms"},
	{"faurelog.full_ms", "ms"},
	{"solver.ms", "ms"},
	{"solver.sat_calls", "count"},
	{"solver.cache_hits", "count"},
	{"solver.cert_hits", "count"},
	{"solver.fastpath_hits", "count"},
	{"solver.searches", "count"},
	{"solver.hit_ratio", "frac"},
	{"relstore.probes", "count"},
	{"relstore.multi_probes", "count"},
	{"relstore.intersections", "count"},
	{"relstore.scans", "count"},
	{"relstore.fallback_scans", "count"},
	{"relstore.probe_hit_ratio", "frac"},
	{"cond.intern_hits", "count"},
	{"cond.intern_misses", "count"},
	{"cond.intern_hit_ratio", "frac"},
	{"cond.intern_live", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs", "count"},
	{"runtime.allocs_per_derived", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"serve.verify_ms", "ms"},
	{"serve.query_ms", "ms"},
	{"serve.insert_ms", "ms"},
	{"serve.delete_ms", "ms"},
	{"serve.apply_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.wal_bytes", "B"},
	{"serve.late_ms", "ms"},
	{"rewrite.apply_ms", "ms"},
	{"verify.category_i_ms", "ms"},
	{"verify.category_ii_ms", "ms"},
	{"verify.direct_ms", "ms"},
	{"verify.decided.category_i", "count"},
	{"verify.decided.category_ii", "count"},
	{"verify.decided.direct", "count"},
	{"containment.subsumes_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

// metricSet collects reported values under their defined units.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	for _, d := range append(endToEnd, perLayer...) {
		if d.name == name {
			m[name] = metric{v, d.unit}
			return
		}
	}
	panic("undefined metric " + name)
}

// runBatch runs fresh-process iterations of a batch workload until the
// time is up. The untraced run reports medians over iterations. The
// traced run alternates untraced
// and traced iterations, so it can report the tracing overhead, and
// reports per-layer means over the traced ones (means, so that the
// per-query times add up to the evaluation time).
func runBatch(cfg config) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	sz := cfg.size()
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	start := time.Now()
	var plain, traced []batchSample
	var res result
	for i := 0; ; i++ {
		enough := len(plain) >= sz.MinIters
		if cfg.Trace {
			enough = len(plain) >= 2 && len(traced) >= 2
		}
		elapsed := time.Since(start)
		if enough && elapsed+elapsed/time.Duration(i) > budget {
			break
		}
		job := cfg
		job.Trace = cfg.Trace && i%2 == 1
		s, err := runChild(exe, job, i)
		if err != nil {
			return result{}, err
		}
		res.Attempted += s.Attempted
		for _, e := range s.Errors {
			res.errors = append(res.errors, fmt.Sprintf("iteration %d: %s", i, e))
		}
		if job.Trace {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	m := metricSet{}
	if !cfg.Trace {
		// Every figure is a median over iterations, the latency
		// percentiles too: each iteration's reads and updates run in
		// one short window, so pooling them would let one iteration
		// that met a burst of load from elsewhere set the tail.
		med := func(f func(s batchSample) float64) float64 {
			xs := make([]float64, len(plain))
			for i, s := range plain {
				xs[i] = f(s)
			}
			return median(xs)
		}
		m.set("setup_s", med(func(s batchSample) float64 { return s.SetupS }))
		m.set("eval_s", med(func(s batchSample) float64 { return s.EvalS }))
		m.set("live_heap_mb", med(func(s batchSample) float64 { return s.LiveHeapMB }))
		m.set("ok_frac", 1-ratio(float64(len(res.errors)), float64(res.Attempted)))
		m.set("read_p50_ms", med(func(s batchSample) float64 { return quantile(s.ReadMS, 0.5) }))
		m.set("read_p95_ms", med(func(s batchSample) float64 { return quantile(s.ReadMS, 0.95) }))
		m.set("update_p50_ms", med(func(s batchSample) float64 { return quantile(s.UpdateMS, 0.5) }))
		m.set("update_p90_ms", med(func(s batchSample) float64 { return quantile(s.UpdateMS, 0.9) }))
		res.Metrics = m
		return res, nil
	}

	var spans []Span
	var tracedEval, plainEval []float64
	for _, s := range traced {
		spans = append(spans, s.Spans...)
		tracedEval = append(tracedEval, s.EvalS)
	}
	for _, s := range plain {
		plainEval = append(plainEval, s.EvalS)
	}
	mean := func(f func(s batchSample) float64) float64 {
		var sum float64
		for _, s := range traced {
			sum += f(s)
		}
		return sum / float64(len(traced))
	}
	st := func(f func(s evalStats) int64) float64 {
		return mean(func(s batchSample) float64 { return float64(f(s.Stats)) })
	}
	setupLayer := map[string]string{"table4-rib": "rib.setup_ms", "fattree-join": "network.setup_ms"}[cfg.Workload]
	m.set(setupLayer, mean(func(s batchSample) float64 { return s.SetupS * 1000 }))
	for q, name := range map[string]string{"q4-q5": "faurelog.q4q5_ms", "q6": "faurelog.q6_ms",
		"q7": "faurelog.q7_ms", "q8": "faurelog.q8_ms", "join": "faurelog.join_ms"} {
		m.set(name, mean(func(s batchSample) float64 { return s.EvalMS[q] }))
	}
	m.set("faurelog.rel_ms", mean(func(s batchSample) float64 { return s.Stats.RelMS }))
	m.set("solver.ms", mean(func(s batchSample) float64 { return s.Stats.SolverMS }))
	m.set("faurelog.load_export_ms", mean(func(s batchSample) float64 {
		return s.EvalS*1000 - s.Stats.RelMS - s.Stats.SolverMS
	}))
	derived, pruned, absorbed := st(func(s evalStats) int64 { return s.Derived }),
		st(func(s evalStats) int64 { return s.Pruned }), st(func(s evalStats) int64 { return s.Absorbed })
	m.set("faurelog.iterations", st(func(s evalStats) int64 { return s.Iterations }))
	m.set("faurelog.derived", derived)
	m.set("faurelog.pruned", pruned)
	m.set("faurelog.absorbed", absorbed)
	m.set("faurelog.absorb_probes", st(func(s evalStats) int64 { return s.AbsorbProbes }))
	m.set("faurelog.plans_reordered", st(func(s evalStats) int64 { return s.PlansReordered }))
	m.set("faurelog.kept_ratio", ratio(derived, derived+pruned+absorbed))

	hits := st(func(s evalStats) int64 { return s.CacheHits + s.CertHits + s.FastPathHits })
	searches := st(func(s evalStats) int64 { return s.Searches })
	m.set("solver.sat_calls", st(func(s evalStats) int64 { return s.SatCalls }))
	m.set("solver.cache_hits", st(func(s evalStats) int64 { return s.CacheHits }))
	m.set("solver.cert_hits", st(func(s evalStats) int64 { return s.CertHits }))
	m.set("solver.fastpath_hits", st(func(s evalStats) int64 { return s.FastPathHits }))
	m.set("solver.searches", searches)
	m.set("solver.hit_ratio", ratio(hits, hits+searches))

	store := relstore.Counters{
		Probes:      int64(st(func(s evalStats) int64 { return s.Probes })),
		MultiProbes: int64(st(func(s evalStats) int64 { return s.MultiProbes })),
		Scans:       int64(st(func(s evalStats) int64 { return s.Scans })),
		Fallbacks:   int64(st(func(s evalStats) int64 { return s.FallbackScans })),
	}
	m.set("relstore.probes", float64(store.Probes))
	m.set("relstore.multi_probes", float64(store.MultiProbes))
	m.set("relstore.intersections", st(func(s evalStats) int64 { return s.Intersections }))
	m.set("relstore.scans", float64(store.Scans))
	m.set("relstore.fallback_scans", float64(store.Fallbacks))
	m.set("relstore.probe_hit_ratio", store.HitRatio())

	ih, im := st(func(s evalStats) int64 { return s.InternHits }), st(func(s evalStats) int64 { return s.InternMisses })
	m.set("cond.intern_hits", ih)
	m.set("cond.intern_misses", im)
	m.set("cond.intern_hit_ratio", ratio(ih, ih+im))
	m.set("cond.intern_live", st(func(s evalStats) int64 { return s.InternLive }))

	allocs := mean(func(s batchSample) float64 { return s.Mem.Allocs })
	m.set("runtime.alloc_mb", mean(func(s batchSample) float64 { return s.Mem.AllocMB }))
	m.set("runtime.allocs", allocs)
	m.set("runtime.allocs_per_derived", ratio(allocs, derived))
	m.set("runtime.gc_cycles", mean(func(s batchSample) float64 { return s.Mem.GCCycles }))
	m.set("runtime.gc_cpu_frac", mean(func(s batchSample) float64 { return s.Mem.gcCPUFrac() }))
	m.set("rewrite.apply_ms", quantile(pooled(traced, func(s batchSample) []float64 { return s.UpdateMS }), 0.5))

	sum := summarize(spans)
	sum.SelfMS["runtime"] = mean(func(s batchSample) float64 { return s.Mem.GCCPUs * 1000 })
	m.set("trace.unattributed_frac", sum.UnattributedFrac)
	m.set("trace.overhead_frac", ratio(median(tracedEval), median(plainEval))-1)
	res.Metrics = m
	path := filepath.Join(cfg.Out, "traces", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
	if err := writeTrace(path, spans, sum); err != nil {
		return result{}, err
	}
	return res, nil
}

func pooled(ss []batchSample, f func(batchSample) []float64) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, f(s)...)
	}
	return out
}
