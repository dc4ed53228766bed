package faurelog

import (
	"context"
	"errors"
	"fmt"
	"time"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faultinject"
	"faure/internal/obs"
	"faure/internal/prov"
	"faure/internal/relstore"
	"faure/internal/solver"
)

// Options tunes evaluation. The zero value asks for defaults: indexed
// matching, eager solver pruning and semantic absorption on.
type Options struct {
	// MaxIterations bounds each stratum's fixpoint; 0 means the
	// default (100000). The bound exists as a safety net: termination
	// is otherwise guaranteed by condition canonicalisation.
	MaxIterations int
	// NoEagerPrune skips the per-derivation satisfiability check (the
	// paper's step 3); contradictory tuples are then removed once at
	// the end. This is ablation knob "eager vs deferred pruning".
	NoEagerPrune bool
	// NoAbsorb disables semantic absorption dedup (dropping a derived
	// tuple whose condition is implied by the disjunction of the
	// conditions already derived for the same data part).
	NoAbsorb bool
	// NoIndex forces full scans instead of hash-index probes in the
	// relational store.
	NoIndex bool
	// NoSolverCache disables the solver's memoisation of
	// satisfiability results (ablation knob).
	NoSolverCache bool
	// Prov, when non-nil, records every committed tuple's provenance
	// edge — rule, parent tuple identities, stratum/round — into the
	// recorder (see internal/prov); a prov.Explainer over the recorder
	// and Result.DB turns the edges into derivation trees. Nil disables
	// recording at zero cost. A bounded recorder (prov.NewRecorder with
	// a positive capacity) caps memory flight-recorder style; the same
	// recorder may span several evaluations (Stats reports this run's
	// deltas).
	Prov *prov.Recorder
	// Observer receives the evaluation's spans (eval → iteration →
	// rule), per-rule derivation counts, and the SQL-vs-solver time
	// split. Nil disables observation: the hot paths then pay a single
	// flag check per site and never read the clock for spans.
	Observer obs.Observer
	// Context cancels the evaluation; it is polled between fixpoint
	// rounds and rule applications. Nil means background (never
	// canceled). Cancellation is not an error: Eval returns the partial
	// result derived so far, flagged Truncated.
	Context context.Context
	// Budget is the live resource tracker the evaluation charges —
	// solver steps, derived tuples, condition sizes, wall clock. Nil
	// disables accounting (unless Context is set, which still enables
	// cancellation polling). Callers that want one budget to span
	// several phases (the verifier's ladder) pass the same tracker to
	// each; the first phase to exhaust it trips them all.
	Budget *budget.B
}

// tracker resolves the effective budget: an explicit tracker wins, a
// bare Context still gets cancellation polling, neither means nil (all
// checks compile to a pointer comparison).
func (o Options) tracker() *budget.B {
	if o.Budget != nil {
		return o.Budget
	}
	if o.Context != nil {
		return budget.New(o.Context, budget.Limits{})
	}
	return nil
}

func (o Options) maxIters() int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	return 100000
}

// Stats reports the work done by one evaluation, mirroring the paper's
// Table 4 breakdown: SQLTime is the relational phase (joins, condition
// construction, dedup), SolverTime is the condition-solving phase (the
// paper's Z3 column).
//
// Stats is a compatibility view over the measurements that also feed
// Options.Observer: SQLTime is the run's wall clock — covering every
// phase, the deferred final prune included — minus the total solver
// time, both read once at the very end of the run, so no solver work
// from a later phase can leak into the relational column.
type Stats struct {
	SQLTime    time.Duration
	SolverTime time.Duration
	Derived    int // tuples inserted into derived relations
	Pruned     int // tuples dropped for contradictory conditions
	Absorbed   int // tuples dropped by semantic absorption
	Iterations int // total fixpoint rounds across strata
	SatCalls   int // solver satisfiability decisions
	// Incremental-solver counters (see internal/solver): decisions
	// answered by an exact-key cached certificate, by a related
	// certificate (base replay / DAG propagation), by the compiled
	// finite-domain fast path, how many reached actual search, and how
	// many certificate-store entries were clock-evicted.
	SolverCacheHits    int
	SolverCertHits     int
	SolverFastPathHits int
	SolverSearches     int
	MemoEvictions      int64
	// AbsorbProbes counts absorption checks that actually reached the
	// solver's Implies — the syntactic fast path answers the rest for
	// free, so the gap between absorption candidates and probes is the
	// fast path's hit count.
	AbsorbProbes int
	// Intern counters snapshot the condition intern table (see
	// internal/cond): Hits/Misses are this run's constructor lookups
	// (deltas over the run), Live is the table's node count at the end
	// of the run (process-wide — the table is global and monotonic).
	InternHits   int64
	InternMisses int64
	InternLive   int64
	// Store counters snapshot the relation store's index usage over the
	// run: single-column probes, multi-column intersection probes,
	// deliberate full scans, probes that fell back to full scans
	// (c-variable keys, columns the index cannot see), and how many
	// column candidate lists were intersected beyond the first.
	Probes        int64
	MultiProbes   int64
	Scans         int64
	FallbackScans int64
	Intersections int64
	// Planner counters: how many rule applications were planned and how
	// many of those the cost model actually reordered away from the
	// written literal order.
	PlansPlanned   int64
	PlansReordered int64
	// Provenance counters (zero unless Options.Prov was set): edges and
	// parent references this run recorded, and edges the bounded
	// recorder's ring evicted during the run.
	ProvEdges   int64
	ProvParents int64
	ProvEvicted int64
}

// ProbeHitRatio is the fraction of store lookups the hash indexes
// answered without scanning the whole relation; 1 when no lookup was
// served.
func (s Stats) ProbeHitRatio() float64 {
	return relstore.Counters{
		Probes:      s.Probes,
		MultiProbes: s.MultiProbes,
		Scans:       s.Scans,
		Fallbacks:   s.FallbackScans,
	}.HitRatio()
}

// SatCallsPerDerived is the run's search-reaching solver decisions per
// derived tuple — the headline metric for the incremental solver: a
// value well below 1 means most conditions were decided by certificate
// reuse or the compiled finite-domain fast path rather than search.
func (s Stats) SatCallsPerDerived() float64 {
	if s.Derived == 0 {
		return 0
	}
	return float64(s.SolverSearches) / float64(s.Derived)
}

// Result is the outcome of an evaluation: the database extended with
// the derived relations, plus statistics.
type Result struct {
	DB    *ctable.Database
	Stats Stats
	// Truncated is non-nil when a resource budget (or cancellation)
	// stopped the fixpoint early: DB then holds the tuples derived up to
	// the last completed checkpoint, an under-approximation of the true
	// fixpoint. Consumers that need completeness (the verifier) must
	// treat a truncated result as Unknown, never as evidence of absence.
	Truncated *budget.Exceeded
}

// Table returns a derived or input table by name, or nil.
func (r *Result) Table(name string) *ctable.Table { return r.DB.Table(name) }

// Eval computes the program's fixpoint over the c-table database and
// returns the database extended with every derived relation. The input
// database is not modified. Derived relations shadow same-named input
// relations in the result.
func Eval(prog *Program, db *ctable.Database, opts Options) (*Result, error) {
	e, err := newEngine(prog, db, opts)
	if err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		// Exceeding a budget is not an error path: surface the partial
		// result, flagged with the exhausted budget.
		if ex := asExceeded(err); ex != nil {
			res, rerr := e.result()
			if rerr != nil {
				return nil, rerr
			}
			res.Truncated = ex
			return res, nil
		}
		return nil, err
	}
	return e.result()
}

// asExceeded extracts a budget-exhaustion record from err, mapping raw
// context sentinels (as injected by the fault harness or returned by
// third-party code) onto the cancellation kinds.
func asExceeded(err error) *budget.Exceeded {
	if ex, ok := budget.As(err); ok {
		return ex
	}
	if errors.Is(err, context.Canceled) {
		return &budget.Exceeded{Kind: budget.Canceled}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &budget.Exceeded{Kind: budget.Deadline}
	}
	return nil
}

// EvalQuery evaluates the program and returns the named derived table
// (which must exist in the program's IDB).
func EvalQuery(prog *Program, db *ctable.Database, pred string, opts Options) (*ctable.Table, *Result, error) {
	if !prog.IDB()[pred] {
		return nil, nil, fmt.Errorf("faurelog: predicate %s is not defined by the program", pred)
	}
	res, err := Eval(prog, db, opts)
	if err != nil {
		return nil, nil, err
	}
	return res.DB.Table(pred), res, nil
}

type engine struct {
	prog *Program
	// rules holds prog.Rules compiled for this evaluation, in program
	// order (see compile.go).
	rules []*crule
	db    *ctable.Database
	opts  Options
	store *relstore.Store
	sol   *solver.Solver
	// seen dedups tuples per predicate by identity: a 128-bit hash of
	// the data part plus the interned condition id — no key strings are
	// ever built (collision odds at 10^7 tuples are ~10^-25). conds
	// lists the conditions derived per data part (by data hash), for
	// absorption.
	seen  map[string]map[ctable.TupleID]struct{}
	conds map[string]map[[2]uint64][]*cond.Formula
	// pending buffers the tuples committed during the current round;
	// they reach the relation store only at the round barrier, so every
	// join in a round reads the store as of the round's start. This
	// snapshot (Jacobi-style) round fixes the iteration counts, row
	// order and budget truncation points independently of the order
	// rules run within a round; derivations that need a same-round
	// tuple fire one round later through its delta.
	pending []pendingInsert
	// derived names the predicates the program defines, in insertion
	// order, to build the result database; extraExport lists EDB
	// relations mutated in place (incremental insertions) that the
	// result must also carry.
	derivedOrder []string
	extraExport  []string
	arity        map[string]int
	stats        Stats
	// needSrcs gates the per-match source collection in join: true when
	// provenance recording consumes the sources, so a run without it
	// pays a single flag check.
	needSrcs bool
	// prov is the provenance recorder (nil = off); provStart snapshots
	// its counters at engine construction so Stats reports this run's
	// deltas even when one recorder spans several evaluations.
	// curStratum/curRound locate the round whose commits are being
	// recorded; runRound writes them and commit reads them.
	prov       *prov.Recorder
	provStart  prov.Stats
	curStratum int
	curRound   int
	// o receives spans and metrics; obsOn gates every instrumentation
	// site so a disabled run pays one branch and no clock reads.
	o     obs.Observer
	obsOn bool
	// bud is the resolved resource tracker (nil when governance is off);
	// the solver shares it, so its steps drain the same budget.
	bud *budget.B
	// internStart snapshots the global condition intern table at engine
	// construction, so the run's Stats can report hit/miss deltas.
	internStart cond.InternStats
}

func newEngine(prog *Program, db *ctable.Database, opts Options) (*engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		prog:  prog,
		db:    db,
		opts:  opts,
		store: relstore.FromDatabase(db),
		sol:   solver.New(db.Doms),
		seen:  map[string]map[ctable.TupleID]struct{}{},
		conds: map[string]map[[2]uint64][]*cond.Formula{},
		arity: map[string]int{},
		o:     obs.OrNop(opts.Observer),
		obsOn: opts.Observer != nil && opts.Observer.Enabled(),
		bud:   opts.tracker(),

		internStart: cond.InternStatsNow(),
	}
	e.sol.SetBudget(e.bud)
	if opts.NoSolverCache {
		e.sol.SetCacheLimit(0)
	}
	if e.obsOn {
		e.sol.SetObserver(opts.Observer)
	}
	if opts.Prov != nil {
		e.prov = opts.Prov
		e.provStart = opts.Prov.Stats()
	}
	e.needSrcs = e.prov != nil
	e.rules = make([]*crule, len(prog.Rules))
	for i, r := range prog.Rules {
		e.rules[i] = compileRule(r)
	}
	// Record arities: program predicates plus database relations.
	for _, r := range prog.Rules {
		e.noteArity(r.Head.Pred, len(r.Head.Args))
		for _, a := range r.Body {
			e.noteArity(a.Pred, len(a.Args))
		}
	}
	for name, t := range db.Tables {
		e.noteArity(name, t.Schema.Arity())
	}
	return e, nil
}

func (e *engine) noteArity(pred string, n int) {
	if _, ok := e.arity[pred]; !ok {
		e.arity[pred] = n
	}
}

// timedSat wraps a solver call, attributing its latency to the solver
// phase rather than the relational phase.
func (e *engine) timedSat(f *cond.Formula) (bool, error) {
	return e.timedSatFrom(f, nil)
}

// timedSatFrom passes the base condition's certificate hint through to
// the incremental solver (see solver.SatisfiableFrom); nil base is a
// plain satisfiability call.
func (e *engine) timedSatFrom(f, base *cond.Formula) (bool, error) {
	start := time.Now()
	sat, err := e.sol.SatisfiableFrom(f, base)
	e.stats.SolverTime += time.Since(start)
	e.stats.SatCalls++
	return sat, err
}

func (e *engine) timedImpliesFrom(f, g, base *cond.Formula) (bool, error) {
	start := time.Now()
	ok, err := e.sol.ImpliesFrom(f, g, base)
	e.stats.SolverTime += time.Since(start)
	e.stats.SatCalls++
	return ok, err
}

func (e *engine) run() error {
	start := time.Now()
	var evalSpan obs.Span
	if e.obsOn {
		evalSpan = e.o.StartSpan("eval", obs.Int("rules", int64(len(e.prog.Rules))))
	}
	err := e.runStrata(evalSpan)
	if err == nil && e.opts.NoEagerPrune {
		var sp obs.Span
		if e.obsOn {
			sp = evalSpan.StartChild("final-prune")
		}
		err = e.finalPrune()
		if e.obsOn {
			sp.End()
		}
	}
	// The wall clock of the whole run minus the time spent in the
	// solver is the relational ("sql") phase. Both are read once, after
	// every phase (the deferred final prune included), so solver time
	// from later phases cannot leak into the relational column.
	e.stats.SQLTime = time.Since(start) - e.stats.SolverTime
	e.captureSolverStats()
	e.captureInternStats()
	e.captureStoreStats()
	e.captureProvStats()
	if e.obsOn {
		e.reportTotals(evalSpan)
		evalSpan.End()
	}
	return err
}

// captureProvStats folds the provenance recorder's counters into the
// run's Stats as deltas since engine construction, so a recorder
// shared across several evaluations still yields per-run attribution.
func (e *engine) captureProvStats() {
	if e.prov == nil {
		return
	}
	now := e.prov.Stats()
	e.stats.ProvEdges = now.Recorded - e.provStart.Recorded
	e.stats.ProvParents = now.Parents - e.provStart.Parents
	e.stats.ProvEvicted = now.Evicted - e.provStart.Evicted
}

// captureSolverStats folds the solver's certificate counters into the
// run's Stats.
func (e *engine) captureSolverStats() {
	ss := e.sol.Stats()
	e.stats.SolverCacheHits = ss.CacheHits
	e.stats.SolverCertHits = ss.CertHits
	e.stats.SolverFastPathHits = ss.FastPathHits
	e.stats.SolverSearches = ss.Searches()
	e.stats.MemoEvictions = int64(ss.Evictions)
}

// captureInternStats folds the condition intern table's counters into
// the run's Stats: hit/miss deltas since engine construction plus the
// current live-node gauge. Other engines in the process move the
// global counters too, so the deltas are an attribution, not an exact
// accounting, under concurrent engines — fine for the benchmark runs
// that read them.
func (e *engine) captureInternStats() {
	now := cond.InternStatsNow()
	e.stats.InternHits = now.Hits - e.internStart.Hits
	e.stats.InternMisses = now.Misses - e.internStart.Misses
	e.stats.InternLive = now.Live
}

// captureStoreStats folds the relation store's lookup counters into
// the run's Stats. Called once at the end of a run, after every phase
// that touches the store.
func (e *engine) captureStoreStats() {
	sc := e.store.Counters()
	e.stats.Probes = sc.Probes
	e.stats.MultiProbes = sc.MultiProbes
	e.stats.Scans = sc.Scans
	e.stats.FallbackScans = sc.Fallbacks
	e.stats.Intersections = sc.Intersections
}

// runStrata evaluates each stratum to fixpoint, in dependency order.
func (e *engine) runStrata(evalSpan obs.Span) error {
	strata, err := Stratify(e.prog)
	if err != nil {
		return err
	}
	idb := e.prog.IDB()
	for pred := range idb {
		e.derivedOrder = append(e.derivedOrder, pred)
	}
	for si, preds := range strata {
		rules, inStratum := e.stratumRules(preds)
		if err := e.evalStratum(rules, inStratum, evalSpan, si); err != nil {
			return err
		}
	}
	return nil
}

// stratumRules returns, in program order, the compiled rules defining
// one stratum's predicates, and the stratum's predicate set.
func (e *engine) stratumRules(preds []string) ([]*crule, map[string]bool) {
	inStratum := map[string]bool{}
	for _, pr := range preds {
		inStratum[pr] = true
	}
	var rules []*crule
	for _, r := range e.rules {
		if inStratum[r.src.Head.Pred] {
			rules = append(rules, r)
		}
	}
	return rules, inStratum
}

// reportTotals publishes the run's aggregate counters and the phase
// time split to the observer and onto the eval span.
func (e *engine) reportTotals(evalSpan obs.Span) {
	e.o.ObserveDuration("eval.sql_time", e.stats.SQLTime)
	e.o.ObserveDuration("eval.solver_time", e.stats.SolverTime)
	e.o.Count("eval.derived", int64(e.stats.Derived))
	e.o.Count("eval.pruned", int64(e.stats.Pruned))
	e.o.Count("eval.absorbed", int64(e.stats.Absorbed))
	e.o.Count("eval.iterations", int64(e.stats.Iterations))
	e.o.Count("eval.sat_calls", int64(e.stats.SatCalls))
	e.o.Count("eval.solver_cache_hits", int64(e.stats.SolverCacheHits))
	e.o.Count("eval.solver_cert_hits", int64(e.stats.SolverCertHits))
	e.o.Count("eval.solver_fastpath_hits", int64(e.stats.SolverFastPathHits))
	e.o.Count("eval.solver_searches", int64(e.stats.SolverSearches))
	e.o.Count("eval.memo_evictions", e.stats.MemoEvictions)
	e.o.SetGauge("eval.sat_calls_per_derived", e.stats.SatCallsPerDerived())
	e.o.Count("eval.absorb_probes", int64(e.stats.AbsorbProbes))
	e.o.Count("eval.intern_hits", e.stats.InternHits)
	e.o.Count("eval.intern_misses", e.stats.InternMisses)
	e.o.SetGauge("cond.intern_live", float64(e.stats.InternLive))
	e.o.Count("eval.store_probes", e.stats.Probes)
	e.o.Count("eval.store_multi_probes", e.stats.MultiProbes)
	e.o.Count("eval.store_scans", e.stats.Scans)
	e.o.Count("eval.store_fallback_scans", e.stats.FallbackScans)
	e.o.Count("eval.store_intersections", e.stats.Intersections)
	e.o.Count("eval.plans_planned", e.stats.PlansPlanned)
	e.o.Count("eval.plans_reordered", e.stats.PlansReordered)
	e.o.SetGauge("eval.probe_hit_ratio", e.stats.ProbeHitRatio())
	if e.prov != nil {
		e.o.Count("eval.prov_edges", e.stats.ProvEdges)
		e.o.Count("eval.prov_parents", e.stats.ProvParents)
		e.o.Count("eval.prov_evicted", e.stats.ProvEvicted)
	}
	evalSpan.SetAttrs(
		obs.Int("derived", int64(e.stats.Derived)),
		obs.Int("pruned", int64(e.stats.Pruned)),
		obs.Int("absorbed", int64(e.stats.Absorbed)),
		obs.Int("iterations", int64(e.stats.Iterations)),
	)
}

// unit is one rule application of a fixpoint round: the rule with
// (when deltaIdx >= 0) the deltaIdx-th body literal restricted to an
// explicit tuple slice.
type unit struct {
	r        *crule
	deltaIdx int
	delta    []ctable.Tuple
}

// delta is the per-round set of newly derived tuples for the recursive
// predicates of a stratum.
type delta map[string][]ctable.Tuple

func (e *engine) evalStratum(rules []*crule, recursive map[string]bool, evalSpan obs.Span, stratum int) error {
	for _, r := range rules {
		e.store.Ensure(r.src.Head.Pred, len(r.head))
	}
	cur := delta{}
	sink := func(pred string, tp ctable.Tuple) {
		cur[pred] = append(cur[pred], tp)
	}
	// Round zero: evaluate every rule in full.
	units := make([]unit, 0, len(rules))
	for _, r := range rules {
		units = append(units, unit{r: r, deltaIdx: -1})
	}
	if err := e.runRound(units, sink, evalSpan, stratum, 0); err != nil {
		return err
	}
	for iter := 0; len(cur) > 0; iter++ {
		e.stats.Iterations++
		if iter >= e.opts.maxIters() {
			return fmt.Errorf("faurelog: fixpoint did not converge within %d iterations", e.opts.maxIters())
		}
		prev := cur
		cur = delta{}
		units = units[:0]
		for _, r := range rules {
			for i, a := range r.body {
				if a.Neg || !recursive[a.Pred] {
					continue
				}
				d := prev[a.Pred]
				if len(d) == 0 {
					continue
				}
				units = append(units, unit{r: r, deltaIdx: i, delta: d})
			}
		}
		if err := e.runRound(units, sink, evalSpan, stratum, iter+1); err != nil {
			return err
		}
	}
	return nil
}

// runRound runs one fixpoint round's units in order — checkpoint,
// iteration span, one rule application per unit — then publishes the
// round's commits at the barrier.
func (e *engine) runRound(units []unit, sink func(string, ctable.Tuple), evalSpan obs.Span, stratum, round int) error {
	if err := e.checkpoint(stratum, round); err != nil {
		return err
	}
	// Locate this round's commits for provenance recording.
	e.curStratum, e.curRound = stratum, round
	var itSpan obs.Span
	if e.obsOn {
		itSpan = evalSpan.StartChild("iteration",
			obs.Int("stratum", int64(stratum)), obs.Int("round", int64(round)))
	}
	var err error
	for _, u := range units {
		if err = e.deriveRuleObserved(u.r, u.deltaIdx, u.delta, sink, itSpan); err != nil {
			break
		}
	}
	// Round barrier: the tuples committed this round become visible to
	// the next round's joins. On a mid-round budget trip the commits
	// made so far still stand, so a truncated result keeps them.
	if ferr := e.flushPending(); err == nil {
		err = ferr
	}
	if e.obsOn {
		itSpan.End()
	}
	if err != nil {
		return e.annotate(err, stratum, round)
	}
	return nil
}

// pendingInsert is one committed tuple awaiting the round barrier.
type pendingInsert struct {
	pred string
	tp   ctable.Tuple
}

// flushPending moves the round's committed tuples into the relation
// store.
func (e *engine) flushPending() error {
	for _, pi := range e.pending {
		rel := e.store.Ensure(pi.pred, len(pi.tp.Values))
		if err := rel.Insert(pi.tp); err != nil {
			return err
		}
	}
	e.pending = e.pending[:0]
	return nil
}

// checkpoint runs the per-round governance checks: the fault-injection
// point for deterministic iteration failures, then cancellation and
// wall-clock polling.
func (e *engine) checkpoint(stratum, round int) error {
	if faultinject.Armed() {
		if err := faultinject.Fire(faultinject.FaurelogIteration); err != nil {
			return err
		}
	}
	if err := e.bud.Check(fmt.Sprintf("stratum %d round %d", stratum, round)); err != nil {
		return err
	}
	return nil
}

// annotate localises a budget trip that surfaced from deep inside a
// rule application (typically the solver, which only knows "solver"):
// the engine knows the stratum and round, so the structured reason can
// say "solver step budget exhausted at stratum 3".
func (e *engine) annotate(err error, stratum, round int) error {
	if ex, ok := budget.As(err); ok && (ex.Where == "" || ex.Where == "solver") {
		ex.Where = fmt.Sprintf("stratum %d round %d", stratum, round)
	}
	return err
}

// Source is one body fact a derivation consumed: a positive match or a
// negated literal (whose "match" is the absence condition).
type Source struct {
	Pred    string
	Tuple   ctable.Tuple
	Negated bool
}

// deriveRuleObserved wraps deriveRule in a "rule" span recording the
// head predicate and how many tuples the application derived. With
// observation off it is a tail call into deriveRule.
func (e *engine) deriveRuleObserved(r *crule, deltaIdx int, deltaTuples []ctable.Tuple, sink func(string, ctable.Tuple), itSpan obs.Span) error {
	if !e.obsOn {
		return e.deriveRule(r, deltaIdx, deltaTuples, sink)
	}
	sp := itSpan.StartChild("rule", obs.String("head", r.src.Head.Pred))
	before := e.stats.Derived
	err := e.deriveRule(r, deltaIdx, deltaTuples, sink)
	derived := int64(e.stats.Derived - before)
	sp.SetAttrs(obs.Int("derived", derived))
	sp.End()
	e.o.Count("eval.rule_derived."+r.src.Head.Pred, derived)
	return err
}

// app is one rule application's join state: the rule with its body in
// execution order, the delta tuples fed to literal deltaIdx (-1: none),
// the slot bindings and the sink committed tuples go to.
type app struct {
	e        *engine
	r        *crule
	deltaIdx int
	delta    []ctable.Tuple
	b        *binding
	sink     func(string, ctable.Tuple)
}

// deriveRule joins the rule body — with the deltaIdx-th literal
// (an index into the compiled, positives-first body) restricted to
// deltaTuples when deltaIdx >= 0 — and emits each completed match,
// committed tuples going to sink.
func (e *engine) deriveRule(r *crule, deltaIdx int, deltaTuples []ctable.Tuple, sink func(string, ctable.Tuple)) error {
	// Per-rule-application poll; the empty location is filled in with
	// the stratum and round by the caller's annotate.
	if err := e.bud.Check(""); err != nil {
		return err
	}
	ordered := *r
	// Join the delta literal first: its tuples are a plain slice, so
	// leaving it deep in the join would make every outer combination
	// scan it linearly, while putting it first lets the remaining
	// literals use index probes on the variables it binds.
	if deltaIdx > 0 {
		body := make([]catom, 0, len(r.body))
		body = append(body, r.body[deltaIdx])
		body = append(body, r.body[:deltaIdx]...)
		body = append(body, r.body[deltaIdx+1:]...)
		ordered.body = body
		deltaIdx = 0
	}
	// Cost-guided planning: when the greedy cost model finds a cheaper
	// positive-literal order than the written one, the join runs the
	// body in that order, negations still last (see plan.go).
	nPos := len(ordered.body)
	for i, a := range ordered.body {
		if a.Neg {
			nPos = i
			break
		}
	}
	if nPos > 1 {
		order, changed := e.planPositives(&ordered, deltaIdx, nPos)
		e.stats.PlansPlanned++
		if changed {
			e.stats.PlansReordered++
			body := make([]catom, 0, len(ordered.body))
			for _, slot := range order {
				body = append(body, ordered.body[slot])
			}
			ordered.body = append(body, ordered.body[nPos:]...)
		}
	}
	if e.needSrcs {
		ordered.str = ordered.String()
	}
	x := &app{
		e:        e,
		r:        &ordered,
		deltaIdx: deltaIdx,
		delta:    deltaTuples,
		b:        newBinding(r.nvars),
		sink:     sink,
	}
	var srcs []Source
	if e.needSrcs {
		srcs = make([]Source, 0, len(ordered.body))
	}
	// Room for everything one match accumulates: up to two conditions
	// per positive literal (the tuple's and the match's equalities), one
	// per negated literal.
	return x.join(0, make([]*cond.Formula, 0, 2*len(ordered.body)), srcs)
}

// String renders the rule with its body in the compiled order.
func (r *crule) String() string {
	src := r.src
	src.Body = make([]Atom, len(r.body))
	for i, a := range r.body {
		src.Body[i] = a.Atom
	}
	return src.String()
}

// join matches body literal i and everything after it, depth first,
// handing each completed match to the engine's emit: the slot values of
// the final bindings, the accumulated body conditions and (when
// recording provenance) the source tuples. The binding array and the
// source stack are live join state; neither outlives the emit call. It
// reads the store as of the round's start (commits wait in e.pending
// until the barrier).
func (x *app) join(i int, conds []*cond.Formula, srcs []Source) error {
	r := x.r
	if i == len(r.body) {
		return x.e.emit(r, x.b.vals, conds, srcs, x.sink)
	}
	a := &r.body[i]
	if a.Neg {
		f, pattern, err := x.e.negationCondition(a, x.b)
		if err != nil {
			return err
		}
		if f.IsFalse() {
			return nil
		}
		next := srcs
		if x.e.needSrcs {
			next = append(srcs, Source{Pred: a.Pred, Tuple: ctable.NewTuple(pattern, f), Negated: true})
		}
		return x.join(i+1, append(conds, f), next)
	}
	if i == x.deltaIdx {
		for _, tp := range x.delta {
			if err := x.try(i, tp, conds, srcs); err != nil {
				return err
			}
		}
		return nil
	}
	rel := x.e.store.Rel(a.Pred)
	if rel == nil {
		return nil
	}
	for _, idx := range x.e.candidateIdxs(rel, a, x.b) {
		if err := x.try(i, rel.Tuple(idx), conds, srcs); err != nil {
			return err
		}
	}
	return nil
}

// try matches body literal i against one tuple and, on success, joins
// the rest of the body under the extended bindings, then unbinds.
func (x *app) try(i int, tp ctable.Tuple, conds []*cond.Formula, srcs []Source) error {
	a := &x.r.body[i]
	mark := x.b.mark()
	extra, ok := matchAtom(a, tp, x.b)
	if !ok {
		return nil
	}
	next := append(conds, tp.Condition())
	if !extra.IsTrue() {
		next = append(next, extra)
	}
	nextSrcs := srcs
	if x.e.needSrcs {
		nextSrcs = append(srcs, Source{Pred: a.Pred, Tuple: tp})
	}
	err := x.join(i+1, next, nextSrcs)
	x.b.undo(mark)
	return err
}

// candidateIdxs narrows the tuples to scan for a body literal using
// the store's hash indexes: the first argument position that is a
// constant (literal or already-bound variable) is probed. A matching
// c-variable at that position is still a candidate (it may equal the
// constant under a condition), so probes include the per-column
// c-variable list.
func (e *engine) candidateIdxs(rel *relstore.Relation, a *catom, b *binding) []int {
	if e.opts.NoIndex {
		return rel.All()
	}
	for col, t := range a.args {
		var key cond.Term
		switch t.kind {
		case TConst:
			key = t.sym
		case TVar:
			if !b.bound[t.slot] || b.vals[t.slot].IsCVar() {
				continue
			}
			key = b.vals[t.slot]
		default:
			continue
		}
		return rel.Candidates(col, key)
	}
	return rel.All()
}

// matchAtom implements the c-valuation v^C for one body literal
// against one tuple: program variables bind to the tuple's c-domain
// symbols; constants match themselves directly or any c-variable via
// an emitted equality; rule c-variables match themselves directly or
// any other symbol via an emitted equality. It returns the emitted
// condition and whether the match is syntactically possible at all.
// New bindings go on b's trail; on failure matchAtom unbinds them
// itself, on success the caller undoes them when it backtracks.
func matchAtom(a *catom, tp ctable.Tuple, b *binding) (*cond.Formula, bool) {
	mark := b.mark()
	var buf [4]*cond.Formula
	extras := buf[:0]
	for i, t := range a.args {
		v := tp.Values[i]
		switch t.kind {
		case TConst:
			if v.IsConst() {
				if t.sym != v {
					b.undo(mark)
					return nil, false
				}
				continue
			}
			extras = append(extras, cond.Compare(v, cond.Eq, t.sym))
		case TCVar:
			if t.sym == v {
				continue
			}
			extras = append(extras, cond.Compare(t.sym, cond.Eq, v))
		case TVar:
			if b.bound[t.slot] {
				bv := b.vals[t.slot]
				if bv == v {
					continue
				}
				if bv.IsConst() && v.IsConst() {
					b.undo(mark)
					return nil, false
				}
				extras = append(extras, cond.Compare(bv, cond.Eq, v))
				continue
			}
			b.set(t.slot, v)
		}
	}
	f := cond.And(extras...)
	if f.IsFalse() {
		b.undo(mark)
		return nil, false
	}
	return f, true
}

// negationCondition computes the "not derivable" condition for a
// negated literal under the current bindings: the negation of the
// disjunction, over every tuple of the relation, of the equalities
// that would make the tuple match, conjoined with the tuple's own
// condition. An empty or missing relation yields true.
func (e *engine) negationCondition(a *catom, b *binding) (*cond.Formula, []cond.Term, error) {
	pattern := make([]cond.Term, len(a.args))
	for i, t := range a.args {
		if t.kind != TVar {
			pattern[i] = t.sym
			continue
		}
		if t.slot < 0 || !b.bound[t.slot] {
			return nil, nil, fmt.Errorf("faurelog: unbound variable %s in negated literal %v", t.name, a.Atom)
		}
		pattern[i] = b.vals[t.slot]
	}
	rel := e.store.Rel(a.Pred)
	if rel == nil {
		return cond.True(), pattern, nil
	}
	// Probe the indexes for the pattern's constant columns instead of
	// scanning: a tuple holding a different constant at a probed column
	// is exactly a possible=false tuple below, contributing nothing to
	// the disjunction — and Or canonicalises, so skipping them yields
	// the identical formula. A pattern with no constant column degrades
	// to a (fallback-counted) full scan inside CandidatesMulti.
	var idxs []int
	if e.opts.NoIndex {
		idxs = rel.All()
	} else {
		var colBuf [8]int
		var keyBuf [8]cond.Term
		cols, keys := colBuf[:0], keyBuf[:0]
		for i, pv := range pattern {
			if pv.IsConst() {
				cols = append(cols, i)
				keys = append(keys, pv)
			}
		}
		idxs = rel.CandidatesMulti(cols, keys)
	}
	var matches []*cond.Formula
	var eqBuf [8]*cond.Formula
	for _, idx := range idxs {
		tp := rel.Tuple(idx)
		eqs := eqBuf[:0]
		possible := true
		for i, pv := range pattern {
			tv := tp.Values[i]
			if pv.IsConst() && tv.IsConst() {
				if pv != tv {
					possible = false
					break
				}
				continue
			}
			if pv == tv {
				continue
			}
			eqs = append(eqs, cond.Compare(pv, cond.Eq, tv))
		}
		if !possible {
			continue
		}
		eqs = append(eqs, tp.Condition())
		matches = append(matches, cond.And(eqs...))
	}
	return cond.Not(cond.Or(matches...)), pattern, nil
}

// emit instantiates the rule head under the completed bindings,
// attaches the accumulated and explicit conditions, prunes and dedups,
// and inserts the tuple: prepareEmit builds the candidate, commit
// decides its fate.
func (e *engine) emit(r *crule, vals []cond.Term, conds []*cond.Formula, srcs []Source, sink func(string, ctable.Tuple)) error {
	p, live, err := e.prepareEmit(r, vals, conds, srcs)
	if err != nil {
		return err
	}
	if !live {
		e.stats.Pruned++
		return nil
	}
	return e.commit(p, sink)
}

// prepared is a candidate emission: the instantiated head tuple with
// its canonical condition, precomputed dedup keys, and (when recording
// provenance) the rule text and sources.
type prepared struct {
	pred string
	tp   ctable.Tuple
	cond *cond.Formula
	// base is the largest conjunct cond was built from — typically the
	// source tuple's already-decided condition, which this round
	// extended by a few atoms. The solver replays base's certificate
	// (unsat verdict or satisfying witness) before searching cond.
	base    *cond.Formula
	key     ctable.TupleID
	dataKey [2]uint64 // data-part hash, for absorption grouping
	ruleStr string    // set when recording provenance
	srcs    []Source  // set when recording provenance; the join's live stack
}

// prepareEmit builds the head tuple for completed bindings. It touches
// no dedup, absorption or store state. live=false with a nil error
// reports a syntactically false condition, which the caller counts as
// a prune.
func (e *engine) prepareEmit(r *crule, vals []cond.Term, conds []*cond.Formula, srcs []Source) (prepared, bool, error) {
	// The conjuncts: body conditions, then the comparisons and the head
	// condition (instantiated here unless they use no program variable,
	// in which case compileRule built them once). A small list lives on
	// the stack; a longer one takes one exactly-sized allocation.
	n := len(conds) + len(r.comps)
	if r.headCond != nil {
		n++
	}
	var buf [8]*cond.Formula
	all := buf[:0]
	if n > len(buf) {
		all = make([]*cond.Formula, 0, n)
	}
	all = append(all, conds...)
	for i := range r.comps {
		f, err := r.comps[i].instantiate(vals)
		if err != nil {
			return prepared{}, false, err
		}
		all = append(all, f)
	}
	if r.headCond != nil {
		f, err := r.headCond.instantiate(vals)
		if err != nil {
			return prepared{}, false, err
		}
		all = append(all, f)
	}
	condition := cond.And(all...)
	if condition.IsFalse() {
		return prepared{}, false, nil
	}
	pred := r.src.Head.Pred
	if err := e.bud.CheckCond(condition.NAtoms(), "derived condition for ", pred); err != nil {
		return prepared{}, false, err
	}
	// Incremental-solver base: the largest conjunct, typically a source
	// tuple's already-decided condition. And() flattens, so the conjunct
	// stays semantically entailed by condition even when it has no
	// syntactic presence in the flattened node.
	var base *cond.Formula
	for _, g := range all {
		if base == nil || g.NAtoms() > base.NAtoms() {
			base = g
		}
	}
	if base != nil && (base == condition || base.NAtoms() == 0) {
		base = nil
	}
	// Every head variable is bound: rules are validated safe, so each
	// occurs in a positive literal, and all of those have matched.
	values := make([]cond.Term, len(r.head))
	for i, t := range r.head {
		if t.kind == TVar {
			values[i] = vals[t.slot]
		} else {
			values[i] = t.sym
		}
	}
	tp := ctable.NewTuple(values, condition)
	d := tp.DataHash()
	p := prepared{
		pred:    pred,
		tp:      tp,
		cond:    condition,
		base:    base,
		key:     ctable.TupleID{D1: d[0], D2: d[1], Cond: condition.ID()},
		dataKey: d,
	}
	if e.needSrcs {
		p.ruleStr = r.str
		p.srcs = srcs
	}
	return p, true, nil
}

// commit decides a prepared emission: dedup, eager prune, absorption,
// budget charge, pending insert, provenance record, sink. Every
// decision that reads or writes the dedup, absorption or pending state
// happens here, in emission order.
func (e *engine) commit(p prepared, sink func(string, ctable.Tuple)) error {
	seen := e.seen[p.pred]
	if seen == nil {
		seen = map[ctable.TupleID]struct{}{}
		e.seen[p.pred] = seen
	}
	if _, dup := seen[p.key]; dup {
		return nil
	}
	seen[p.key] = struct{}{}

	if !e.opts.NoEagerPrune {
		sat, err := e.timedSatFrom(p.cond, p.base)
		if err != nil {
			return err
		}
		if !sat {
			e.stats.Pruned++
			return nil
		}
	}

	if !e.opts.NoAbsorb {
		byData := e.conds[p.pred]
		if byData == nil {
			byData = map[[2]uint64][]*cond.Formula{}
			e.conds[p.pred] = byData
		}
		if existing := byData[p.dataKey]; len(existing) > 0 {
			implied, err := e.absorbed(p.cond, existing)
			if err != nil {
				return err
			}
			if implied {
				e.stats.Absorbed++
				return nil
			}
		}
		byData[p.dataKey] = append(byData[p.dataKey], p.cond)
	}

	if err := e.bud.AddTuples(1, "derived relation ", p.pred); err != nil {
		return err
	}
	e.pending = append(e.pending, pendingInsert{pred: p.pred, tp: p.tp})
	e.stats.Derived++
	if e.prov != nil {
		e.recordProv(&p)
	}
	sink(p.pred, p.tp)
	return nil
}

// recordProv stores the provenance edge of a just-committed tuple:
// its rule, parents and the stratum/round of the commit.
func (e *engine) recordProv(p *prepared) {
	refs := make([]prov.SourceRef, len(p.srcs))
	for i, s := range p.srcs {
		refs[i] = prov.SourceRef{Pred: s.Pred, Key: s.Tuple.Identity(), Negated: s.Negated}
		if s.Negated {
			// Negated parents exist in no relation; keep the pattern
			// tuple so explanations can render them.
			refs[i].Tuple = s.Tuple
		}
	}
	e.prov.Record(p.pred, p.key, e.prov.InternRule(p.ruleStr), e.curStratum, e.curRound, refs)
}

// absorbed decides whether condition is implied by the disjunction of
// the conditions already derived for the same data part. A syntactic
// fast path answers for free when some existing condition is literally
// true, identical to condition, or one of condition's own conjuncts
// (condition = g ∧ rest ⇒ g ⇒ the disjunction); only the residual
// semantic probe pays a solver Implies, counted in AbsorbProbes.
func (e *engine) absorbed(condition *cond.Formula, existing []*cond.Formula) (bool, error) {
	var conj map[*cond.Formula]bool
	for _, g := range existing {
		if g.IsTrue() || g == condition {
			return true, nil
		}
		if conj == nil {
			cs := condition.Conjuncts()
			conj = make(map[*cond.Formula]bool, len(cs))
			for _, c := range cs {
				conj[c] = true
			}
		}
		if conj[g] {
			return true, nil
		}
	}
	e.stats.AbsorbProbes++
	// condition itself is the base: condition ∧ ¬(existing…) entails it,
	// so its certificate (an unsat verdict in particular) short-circuits
	// the entailment probe.
	return e.timedImpliesFrom(condition, cond.Or(existing...), condition)
}

// finalPrune removes contradictory tuples from the derived relations
// (used when eager pruning is off).
func (e *engine) finalPrune() error {
	for _, pred := range e.derivedOrder {
		rel := e.store.Rel(pred)
		if rel == nil {
			continue
		}
		kept := relstore.NewRelation(pred, e.arity[pred])
		for _, idx := range rel.All() {
			tp := rel.Tuple(idx)
			sat, err := e.timedSat(tp.Condition())
			if err != nil {
				return err
			}
			if !sat {
				e.stats.Pruned++
				continue
			}
			if err := kept.Insert(tp); err != nil {
				return err
			}
		}
		e.store.Replace(pred, kept)
	}
	return nil
}

func (e *engine) result() (*Result, error) {
	out := e.db.Clone()
	for _, pred := range append(append([]string{}, e.extraExport...), e.derivedOrder...) {
		rel := e.store.Rel(pred)
		if rel == nil {
			continue
		}
		var attrs []string
		if t := e.db.Table(pred); t != nil {
			attrs = t.Schema.Attrs
		}
		out.AddTable(rel.Table(attrs))
	}
	return &Result{DB: out, Stats: e.stats}, nil
}

// Stratify orders the program's IDB predicates for evaluation: it
// computes the strongly connected components of the positive/negative
// dependency graph and returns them in topological order (dependencies
// first), so that each returned group is exactly one recursion clique.
// Negation inside a component (negation through recursion) is
// rejected. Finer grouping than classic negation-layering means
// non-recursive rules never ride a fixpoint loop they do not need.
func Stratify(p *Program) ([][]string, error) {
	idb := p.IDB()
	type edge struct {
		to  string
		neg bool
	}
	// Edges point dependency → dependent (body pred → head pred).
	adj := map[string][]edge{}
	var preds []string
	seen := map[string]bool{}
	for _, r := range p.Rules {
		if !seen[r.Head.Pred] {
			seen[r.Head.Pred] = true
			preds = append(preds, r.Head.Pred)
		}
	}
	for _, r := range p.Rules {
		for _, a := range r.Body {
			if idb[a.Pred] {
				adj[a.Pred] = append(adj[a.Pred], edge{to: r.Head.Pred, neg: a.Neg})
			}
		}
	}

	// Tarjan's SCC over the predicate graph.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	comp := map[string]int{}
	nComp := 0
	next := 0
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			w := e.to
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = nComp
				if w == v {
					break
				}
			}
			nComp++
		}
	}
	for _, v := range preds {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}

	// Negation must cross components.
	for from, es := range adj {
		for _, e := range es {
			if e.neg && comp[from] == comp[e.to] {
				return nil, fmt.Errorf("faurelog: program is not stratifiable (negation through recursion between %s and %s)", from, e.to)
			}
		}
	}

	// Tarjan emits components in reverse topological order of the
	// condensation for edges dependency→dependent; a component's
	// dependencies therefore have LOWER component numbers... they do
	// not in general, so order explicitly: Kahn over the condensation.
	depCount := make([]int, nComp)
	compAdj := make([][]int, nComp)
	edgeSeen := map[[2]int]bool{}
	for from, es := range adj {
		for _, e := range es {
			a, b := comp[from], comp[e.to]
			if a == b || edgeSeen[[2]int{a, b}] {
				continue
			}
			edgeSeen[[2]int{a, b}] = true
			compAdj[a] = append(compAdj[a], b)
			depCount[b]++
		}
	}
	members := make([][]string, nComp)
	for _, v := range preds {
		c := comp[v]
		members[c] = append(members[c], v)
	}
	var queue []int
	for c := 0; c < nComp; c++ {
		if depCount[c] == 0 {
			queue = append(queue, c)
		}
	}
	var strata [][]string
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		strata = append(strata, members[c])
		for _, d := range compAdj[c] {
			depCount[d]--
			if depCount[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(strata) != nComp {
		return nil, fmt.Errorf("faurelog: internal error: condensation ordering incomplete")
	}
	return strata, nil
}
