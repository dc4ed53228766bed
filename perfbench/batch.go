package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/network"
	"faure/internal/relstore"
	"faure/internal/rewrite"
	"faure/internal/rib"
)

// The batch workloads run once per fresh process (see child.go), so
// the global condition intern table starts empty as it does for a CLI
// user, and a workload's counters cannot depend on what ran before.

// Table 4 pins q7's pair and q8's source to the paper's nodes.
const q7Src, q7Dst, q8Src = 2, 5, 1

// evalStats sums what the batch's faurelog.Eval calls report.
type evalStats struct {
	Iterations, Derived, Pruned, Absorbed, AbsorbProbes, PlansReordered int64
	SatCalls, CacheHits, CertHits, FastPathHits, Searches               int64
	Probes, MultiProbes, Intersections, Scans, FallbackScans            int64
	InternHits, InternMisses, InternLive                                int64
	RelMS, SolverMS                                                     float64
}

func (s *evalStats) add(st faurelog.Stats) {
	s.Iterations += int64(st.Iterations)
	s.Derived += int64(st.Derived)
	s.Pruned += int64(st.Pruned)
	s.Absorbed += int64(st.Absorbed)
	s.AbsorbProbes += int64(st.AbsorbProbes)
	s.PlansReordered += st.PlansReordered
	s.SatCalls += int64(st.SatCalls)
	s.CacheHits += int64(st.SolverCacheHits)
	s.CertHits += int64(st.SolverCertHits)
	s.FastPathHits += int64(st.SolverFastPathHits)
	s.Searches += int64(st.SolverSearches)
	s.Probes += st.Probes
	s.MultiProbes += st.MultiProbes
	s.Intersections += st.Intersections
	s.Scans += st.Scans
	s.FallbackScans += st.FallbackScans
	s.RelMS += ms(st.SQLTime)
	s.SolverMS += ms(st.SolverTime)
}

// batchSample is what one batch iteration reports to the parent.
type batchSample struct {
	SetupS     float64            `json:"setup_s"`
	EvalS      float64            `json:"eval_s"`
	EvalMS     map[string]float64 `json:"eval_ms"` // per query, timed around Eval
	LiveHeapMB float64            `json:"live_heap_mb"`
	ReadMS     []float64          `json:"read_ms"`
	UpdateMS   []float64          `json:"update_ms"`
	Attempted  int                `json:"attempted"`
	Errors     []string           `json:"errors,omitempty"`
	Stats      evalStats          `json:"stats"`
	Mem        memDelta           `json:"mem"`
	Spans      []Span             `json:"spans,omitempty"`
}

// batchRun carries one iteration's state.
type batchRun struct {
	tr   *tracer
	root int
	out  batchSample
	// seed generates the iteration's input: each iteration of a run
	// draws its own, so a run's medians cover several inputs and
	// depend less on any one of them.
	seed int64
	// rnd samples the checked worlds and flows; readRnd draws the read
	// worlds, a sequence fixed by the iteration number alone.
	rnd, readRnd *rand.Rand
}

func newBatchRun(cfg config, iter int) *batchRun {
	seed := cfg.Seed*1000 + int64(iter)
	r := &batchRun{out: batchSample{EvalMS: map[string]float64{}}, seed: seed,
		rnd: rand.New(rand.NewSource(seed)), readRnd: rand.New(rand.NewSource(int64(iter)))}
	if cfg.Trace {
		r.tr = newTracer(fmt.Sprintf("%s/seed%d/iter%d", cfg.Workload, cfg.Seed, iter))
		r.root = r.tr.begin(0, benchLayer, "iteration")
	}
	return r
}

func (r *batchRun) fail(format string, args ...any) {
	r.out.Errors = append(r.out.Errors, fmt.Sprintf(format, args...))
}

// setup times fn as the workload's set-up, under one layer span.
func (r *batchRun) setup(layer, name string, fn func()) {
	id := r.tr.begin(r.root, layer, name)
	t0 := time.Now()
	fn()
	r.out.SetupS += time.Since(t0).Seconds()
	r.tr.end(id)
}

// eval runs one timed faurelog.Eval. The runtime counters are read
// around the call; the forced collection that measures the live heap
// runs after it, outside the timing.
func (r *batchRun) eval(name string, prog *faurelog.Program, in *ctable.Database) *faurelog.Result {
	r.out.Attempted++
	id := r.tr.begin(r.root, "faurelog", "faurelog.Eval "+name)
	before := readMem()
	t0 := time.Now()
	res, err := faurelog.Eval(prog, in, faurelog.Options{})
	d := time.Since(t0)
	r.out.Mem.add(before, readMem())
	r.tr.end(id)
	if err != nil {
		r.fail("%s: %v", name, err)
		return nil
	}
	if res.Truncated != nil {
		r.fail("%s: truncated: %v", name, res.Truncated)
		return nil
	}
	r.out.EvalMS[name] = ms(d)
	r.out.EvalS += d.Seconds()
	r.out.Stats.add(res.Stats)
	r.tr.derived(id, "solver", "solver (Stats.SolverTime)", 0, res.Stats.SolverTime)
	if r.tr != nil {
		// The store load Eval does first, replayed on its own so the
		// trace can show the relstore layer's share.
		id := r.tr.begin(r.root, "relstore", "relstore.FromDatabase "+name)
		relstore.FromDatabase(in)
		r.tr.end(id)
	}
	r.out.LiveHeapMB = max(r.out.LiveHeapMB, liveHeapMB())
	return res
}

// reads times world reads of table: each read walks the answer in one
// sampled possible world.
func (r *batchRun) reads(db *ctable.Database, table string, n int) {
	runtime.GC()
	id := r.tr.begin(r.root, "cond", "world reads "+table)
	defer r.tr.end(id)
	for i := 0; i < n; i++ {
		w := sampleWorld(r.readRnd, db.Doms)
		r.out.Attempted++
		t0 := time.Now()
		err := eachRow(db.Table(table), w, func([]cond.Term) {})
		r.out.ReadMS = append(r.out.ReadMS, ms(time.Since(t0)))
		if err != nil {
			r.fail("read %s: %v", table, err)
		}
	}
}

// updates times n route announcements applied to the input state with
// rewrite.ApplyBudgeted; each names a fresh flow or node, so the
// workload's answers are unaffected.
func (r *batchRun) updates(in *ctable.Database, n int, change func(i int) rewrite.Change) {
	// The collector is off for the burst, so no update pays for
	// collecting another's garbage and the tail measures the updates
	// themselves; a forced collection before every updatesPerGC
	// updates, outside the timing, bounds the garbage (a few MB per
	// update at most). The first updatesPerGC updates are not timed:
	// they grow the heap, and an update that takes fresh pages from
	// the OS runs about four times as long as one that reuses freed
	// ones.
	const updatesPerGC = 30
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < updatesPerGC+n; i++ {
		if i%updatesPerGC == 0 {
			runtime.GC()
		}
		u := rewrite.Update{Inserts: []rewrite.Change{change(i)}}
		r.out.Attempted++
		id := r.tr.begin(r.root, "rewrite", "rewrite.ApplyBudgeted")
		t0 := time.Now()
		_, err := rewrite.ApplyBudgeted(in, u, nil)
		if i >= updatesPerGC {
			r.out.UpdateMS = append(r.out.UpdateMS, ms(time.Since(t0)))
		}
		r.tr.end(id)
		if err != nil {
			r.fail("update %d: %v", i, err)
		}
	}
}

// checkWorlds returns the three worlds the answer check compares: the
// first satisfies every Table-4 failure pattern (x=1, y=z=0), the
// second none of them, the third is random.
func (r *batchRun) checkWorlds(db *ctable.Database) []world {
	ws := make([]world, 3)
	for i := range ws {
		ws[i] = sampleWorld(r.rnd, db.Doms)
		switch i {
		case 0:
			ws[i]["x"], ws[i]["y"], ws[i]["z"] = cond.Int(1), cond.Int(0), cond.Int(0)
		case 1:
			ws[i]["x"], ws[i]["y"], ws[i]["z"] = cond.Int(1), cond.Int(1), cond.Int(1)
		}
	}
	return ws
}

// checkFlows samples the prefixes whose answers the check compares:
// n drawn from the RIB plus up to n/4 that q7's pinned pair reaches,
// so the q7 comparison is not trivially empty.
func (r *batchRun) checkFlows(gen *rib.RIB, q7 *ctable.Database, n int) map[string]bool {
	flows := map[string]bool{}
	for i := 0; i < n; i++ {
		flows[gen.Entries[r.rnd.Intn(len(gen.Entries))].Prefix] = true
	}
	if t := q7.Table("t2"); t != nil {
		for i := 0; i < n/4 && t.Len() > 0; i++ {
			flows[t.Tuples[r.rnd.Intn(t.Len())].Values[0].S] = true
		}
	}
	return flows
}

// check runs the answer check, outside the timing, under a span of
// its own.
func (r *batchRun) check(fn func() []string) {
	id := r.tr.begin(r.root, benchLayer, "answer check")
	defer r.tr.end(id)
	r.out.Errors = append(r.out.Errors, fn()...)
}

func (r *batchRun) finish() batchSample {
	r.out.Stats.InternLive = cond.InternStatsNow().Live
	r.tr.end(r.root)
	r.out.Spans = r.tr.snapshot()
	return r.out
}

// runTable4 is one iteration of table4-rib: the synthetic RIB through
// q4-q5, q6, q7 and q8, as the paper's Table 4.
func runTable4(cfg config, iter int) batchSample {
	r := newBatchRun(cfg, iter)
	sz := cfg.size()
	var in *ctable.Database
	var gen *rib.RIB
	r.setup("rib", "rib.Generate", func() {
		gen = rib.Generate(rib.Config{Prefixes: sz.Prefixes, PoolSize: 10, Seed: r.seed})
	})
	r.setup("rib", "rib.ForwardingDatabase", func() { in = gen.ForwardingDatabase() })
	// Updates run before the evaluations, on a heap that holds only the
	// input, so their latency does not depend on the results' size.
	r.updates(in, sz.Updates, func(i int) rewrite.Change {
		return rewrite.Change{Pred: "fwd", Values: []cond.Term{
			cond.Str(fmt.Sprintf("perfbench-%d", i)), cond.Int(int64(900000 + 2*i)), cond.Int(int64(900001 + 2*i))}}
	})
	internBefore := cond.InternStatsNow()

	var out table4Out
	if res := r.eval("q4-q5", network.ReachabilityProgram(), in); res != nil {
		out.reach = res.DB
	}
	if out.reach != nil {
		if res := r.eval("q6", network.TwoLinkFailureProgram("x", "y", "z"), out.reach); res != nil {
			out.q6 = res.DB
		}
	}
	if out.q6 != nil {
		if res := r.eval("q7", network.PinnedPairFailureProgram(q7Src, q7Dst, "y"), out.q6); res != nil {
			out.q7 = res.DB
		}
	}
	if out.reach != nil {
		if res := r.eval("q8", network.AtLeastOneFailureProgram(q8Src, "y", "z"), out.reach); res != nil {
			out.q8 = res.DB
		}
	}
	r.noteIntern(internBefore)
	if out.reach == nil || out.q6 == nil || out.q7 == nil || out.q8 == nil {
		return r.finish()
	}

	// Reads fetch q8's answer, the last table of Table 4: at a few
	// milliseconds a read is short enough that bursts of load from
	// elsewhere on the host seldom reach its p95 (reads of all of reach
	// take ~9 ms and their p95 followed the host's load).
	r.reads(out.q8, "t3", sz.Reads)
	r.check(func() []string {
		return checkTable4(in, out, r.checkWorlds(in), r.checkFlows(gen, out.q7, sz.CheckFlows))
	})
	return r.finish()
}

// runJoin is one iteration of fattree-join: JoinStressProgram over the
// fat-tree topology.
func runJoin(cfg config, iter int) batchSample {
	r := newBatchRun(cfg, iter)
	sz := cfg.size()
	const fanout = 3
	var in *ctable.Database
	r.setup("network", "network.JoinTopology", func() {
		in = network.JoinTopology(network.JoinTopoConfig{Pods: max(1, sz.Hosts/(fanout*fanout)), Fanout: fanout, Seed: r.seed})
	})
	r.updates(in, sz.Updates, func(i int) rewrite.Change {
		return rewrite.Change{Pred: "link", Values: []cond.Term{cond.Int(int64(5000000 + 2*i)), cond.Int(int64(5000001 + 2*i))}}
	})
	internBefore := cond.InternStatsNow()
	res := r.eval("join", network.JoinStressProgram(), in)
	r.noteIntern(internBefore)
	if res == nil {
		return r.finish()
	}
	r.reads(res.DB, "pair", sz.JoinReads)
	r.check(func() []string {
		hosts := map[int64]bool{}
		for _, t := range in.Table("dst").Tuples {
			hosts[t.Values[0].I] = true
		}
		all := in.Table("host").Tuples
		for i := 0; i < sz.CheckFlows; i++ {
			hosts[all[r.rnd.Intn(len(all))].Values[0].I] = true
		}
		return checkJoin(in, res.DB, r.checkWorlds(in), hosts)
	})
	return r.finish()
}

// noteIntern records the intern-table lookups the Eval calls made.
func (r *batchRun) noteIntern(before cond.InternStats) {
	now := cond.InternStatsNow()
	r.out.Stats.InternHits = now.Hits - before.Hits
	r.out.Stats.InternMisses = now.Misses - before.Misses
}
