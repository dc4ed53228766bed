package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"faure/internal/cond"
	"faure/internal/containment"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/network"
	"faure/internal/obs"
	"faure/internal/rewrite"
	"faure/internal/rib"
	"faure/internal/serve"
	"faure/internal/solver"
	"faure/internal/verify"
)

// serve-mixed is an open-loop load on an in-process serve.New +
// Handler over loopback: one connection carries reads at a fixed rate,
// the other updates at a fixed rate. Every request is timed from the
// moment it was due, so a stall also counts against the requests
// queued behind it.

// The read requests. Each answer is fixed at set-up and stays the same
// in every generation, because updates only add and withdraw
// single-hop routes of fresh flows between fresh nodes.
const (
	readSelfLoop = iota // direct verify: no flow reaches a node from itself
	readTwoHop          // ad-hoc two-hop query
	readTeams           // no-state category-i verify of the team scenario
	readLoopAdd         // prospective update adding a self-loop
	numReadKinds
)

var readKindName = [numReadKinds]string{"verify self-loop", "query two-hop", "verify teams", "verify loop-add"}

// readBlock is the read mix: the schedule cycles through shuffled
// copies of it. The kinds' latencies form separate clusters (teams
// ~3 ms, loop-add ~11 ms, self-loop ~17 ms, two-hop ~33 ms at the
// commit that added the benchmark), and a percentile that falls in the
// gap between two clusters jumps with the smallest change in the mix;
// one that falls in a cluster's tail follows whatever slowed that
// run's worst few requests. With teams, loop-add and two-hop a tenth
// each and self-loop the rest, read_p50_ms falls in the middle of the
// self-loop verifies and read_p95_ms is the median two-hop query.
var readBlock = []int{readTeams, readLoopAdd, readTwoHop,
	readSelfLoop, readSelfLoop, readSelfLoop, readSelfLoop, readSelfLoop, readSelfLoop, readSelfLoop}

const (
	selfLoopTarget = `panic() :- reach(f, a, b), a = b.`
	twoHopProgram  = `hop2(f, a, c) :- fwd(f, a, b), fwd(f, b, c).`
	loopTarget     = `panic() :- fwd(f, a, b), a = b.`
	loopUpdate     = `+fwd('perfbench-loop', 7, 7).`
)

// request is one scheduled request.
type request struct {
	due    time.Duration // offset from the load's start
	read   int           // read kind, or -1 for an update
	body   []byte
	update string // update text, for updates
	insert bool
	id     string
}

// outcome is one finished request.
type outcome struct {
	req        request
	sent, done time.Duration
	status     int
	body       []byte
	err        error
	late       time.Duration // dispatcher lateness
	level      string        // the verify level the response names
}

// serveExpect holds the answers computed at set-up with library calls
// and the verdicts known by construction.
type serveExpect struct {
	verdict, level [numReadKinds]string
	hop2Tuples     int
	hop2Table      string
}

// serveEnv is the workload's generated input.
type serveEnv struct {
	cfg   config
	sz    sizes
	base  *ctable.Database
	prog  *faurelog.Program
	teams *network.TeamScenario
	doms  solver.Domains
	want  serveExpect
}

func runServe(cfg config) (result, error) {
	start := time.Now()
	var tr *tracer
	if cfg.Trace {
		tr = newTracer(fmt.Sprintf("serve-mixed/seed%d", cfg.Seed))
	}
	env, boot, err := serveSetup(cfg, tr)
	if err != nil {
		return result{}, err
	}
	sz := env.sz
	// The load takes what set-up left of the run, less a second for
	// the drain and, untraced, as long again as the boot timings took
	// for their second half after the load; a traced run splits it
	// between an untraced and a traced phase and keeps about 300 ms
	// per replay round.
	load := time.Duration(cfg.Seconds*float64(time.Second)) - time.Since(start) - time.Second
	if cfg.Trace {
		load -= time.Duration(sz.Replays) * 300 * time.Millisecond
		load /= 2
	} else {
		load -= boot.took
	}
	if load < 2*time.Second {
		load = 2 * time.Second
	}
	var res result
	m := metricSet{}

	// The untraced phase: the end-to-end figures, and the baseline the
	// traced phase's overhead is measured against.
	plain, err := env.phase("plain", load, nil, nil)
	if err != nil {
		return result{}, err
	}
	res.Attempted += len(plain.outs)
	res.errors = append(res.errors, plain.errs...)
	if !cfg.Trace {
		if _, err := env.timeBoot(boot, sz.ServeSetups-sz.ServeSetups/2, nil, 0); err != nil {
			return result{}, err
		}
		m.set("setup_s", median(boot.setups))
		m.set("eval_s", median(boot.evals))
		m.set("live_heap_mb", plain.liveHeapMB)
		m.set("read_p50_ms", quantile(plain.latency(isRead), 0.5))
		m.set("read_p95_ms", quantile(plain.latency(isRead), 0.95))
		m.set("update_p50_ms", quantile(plain.latency(isUpdate), 0.5))
		m.set("update_p90_ms", quantile(plain.latency(isUpdate), 0.9))
		m.set("ok_frac", 1-ratio(float64(len(res.errors)), float64(res.Attempted)))
		res.Metrics = m
		return res, nil
	}

	reg := obs.NewRegistry()
	traced, err := env.phase("traced", load, tr, reg)
	if err != nil {
		return result{}, err
	}
	res.Attempted += len(traced.outs)
	res.errors = append(res.errors, traced.errs...)
	snap := reg.Snapshot()
	apply := snap.DurationsMS["serve.update_latency"].P50
	kind := func(f func(o outcome) bool) float64 { return quantile(traced.service(f), 0.5) }
	m.set("serve.verify_ms", kind(func(o outcome) bool { return o.req.read == readSelfLoop || o.req.read >= readTeams }))
	m.set("serve.query_ms", kind(func(o outcome) bool { return o.req.read == readTwoHop }))
	m.set("serve.insert_ms", kind(func(o outcome) bool { return o.req.read < 0 && o.req.insert }))
	m.set("serve.delete_ms", kind(func(o outcome) bool { return o.req.read < 0 && !o.req.insert }))
	m.set("serve.apply_ms", apply)
	m.set("serve.queue_wait_ms", quantile(traced.latency(isUpdate), 0.5)-apply)
	m.set("serve.rejected", float64(traced.rejected))
	m.set("serve.wal_bytes", float64(traced.walBytes))
	m.set("serve.late_ms", quantile(traced.lateness(), 0.95))
	levels := map[string]float64{}
	for _, o := range traced.outs {
		levels[o.level]++
	}
	m.set("verify.decided.category_i", levels["category-i"])
	m.set("verify.decided.category_ii", levels["category-ii"])
	m.set("verify.decided.direct", levels["direct"])
	m.set("cond.intern_live", float64(cond.InternStatsNow().Live))
	m.set("runtime.alloc_mb", traced.mem.AllocMB)
	m.set("runtime.allocs", traced.mem.Allocs)
	m.set("runtime.gc_cycles", traced.mem.GCCycles)
	m.set("runtime.gc_cpu_frac", traced.mem.gcCPUFrac())
	m.set("trace.overhead_frac", ratio(quantile(traced.latency(isRead), 0.5), quantile(plain.latency(isRead), 0.5))-1)
	if err := env.replays(traced.final, tr, m); err != nil {
		return result{}, err
	}

	spans := tr.snapshot()
	sum := summarize(spans)
	sum.SelfMS["runtime"] = traced.mem.GCCPUs * 1000
	m.set("trace.unattributed_frac", sum.UnattributedFrac)
	path := filepath.Join(cfg.Out, "traces", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
	if err := writeTrace(path, spans, sum); err != nil {
		return result{}, err
	}
	res.Metrics = m
	return res, nil
}

func isRead(o outcome) bool   { return o.req.read >= 0 }
func isUpdate(o outcome) bool { return o.req.read < 0 }

// bootSeed is faure-serve's default RIB seed. The boot state is the
// same for every run; the workload seed drives the request schedule.
const bootSeed = 1

// serveSetup generates the boot state of faure-serve's default (a
// synthetic RIB, the reachability program), computes the expected
// answers with library calls, and takes the first half of the boot
// timings (see bootTimes).
func serveSetup(cfg config, tr *tracer) (*serveEnv, *bootTimes, error) {
	sz := cfg.size()
	root := tr.begin(0, benchLayer, "setup")
	defer tr.end(root)
	env := &serveEnv{cfg: cfg, sz: sz, prog: network.ReachabilityProgram()}
	id := tr.begin(root, "rib", "rib.Generate+ForwardingDatabase")
	env.base = rib.Generate(rib.Config{Prefixes: sz.ServePrefixes, Seed: bootSeed}).ForwardingDatabase()
	tr.end(id)
	id = tr.begin(root, "network", "network.NewTeamScenario")
	env.teams = network.NewTeamScenario(sz.TeamSize)
	tr.end(id)
	env.doms = solver.Domains{}
	for k, v := range env.base.Doms {
		env.doms[k] = v
	}
	for k, v := range env.teams.Doms {
		env.doms[k] = v
	}

	boot := &bootTimes{}
	t0 := time.Now()
	ref, err := env.timeBoot(boot, sz.ServeSetups/2, tr, root)
	if err != nil {
		return nil, nil, err
	}
	boot.took = time.Since(t0)
	if err := env.expect(ref.DB); err != nil {
		return nil, nil, err
	}
	return env, boot, nil
}

// bootTimes are the timings behind setup_s, the median time of
// serve.New, and eval_s, the median time of the full evaluation of the
// boot state — the one serve.New and every withdrawal run. Half are
// taken before the load and half after it, so the medians span the
// whole run and depend less on the host's speed in any one moment.
type bootTimes struct {
	setups, evals []float64
	took          time.Duration // the first half's wall time
}

// timeBoot times n serve.New calls and n evaluations of the boot
// state, each after a forced collection, and returns the last
// evaluation's result.
func (env *serveEnv) timeBoot(b *bootTimes, n int, tr *tracer, root int) (*faurelog.Result, error) {
	var ref *faurelog.Result
	for i := 0; i < n; i++ {
		wal := filepath.Join(env.cfg.Out, fmt.Sprintf("setup-%d.wal", i))
		_ = os.Remove(wal)
		runtime.GC()
		id := tr.begin(root, "serve", "serve.New")
		t0 := time.Now()
		srv, err := serve.New(env.serveConfig(wal, nil))
		b.setups = append(b.setups, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			return nil, err
		}
		_ = os.Remove(wal)

		runtime.GC()
		id = tr.begin(root, "faurelog", "faurelog.Eval boot state")
		t0 = time.Now()
		ref, err = faurelog.Eval(env.prog, env.base, faurelog.Options{})
		b.evals = append(b.evals, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return ref, nil
}

func (env *serveEnv) serveConfig(wal string, reg *obs.Registry) serve.Config {
	c := serve.Config{Program: env.prog, Base: env.base, WALPath: wal, Doms: env.doms, Schema: env.teams.Schema,
		Log: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))}
	if reg != nil {
		c.Obs = reg
	}
	return c
}

func (env *serveEnv) verifier() *verify.Verifier {
	return &verify.Verifier{Doms: env.doms, Schema: env.teams.Schema}
}

// expect computes every read's answer on the boot state.
func (env *serveEnv) expect(db *ctable.Database) error {
	v := env.verifier()
	self := containment.MustConstraint("self-loop", selfLoopTarget)
	rep, level, err := v.Ladder(self, nil, nil, db)
	if err != nil {
		return err
	}
	env.want.verdict[readSelfLoop], env.want.level[readSelfLoop] = rep.Verdict.String(), level

	hop, err := faurelog.Eval(faurelog.MustParse(twoHopProgram), db, faurelog.Options{})
	if err != nil {
		return err
	}
	one := ctable.NewDatabase()
	one.AddTable(hop.DB.Table("hop2"))
	env.want.hop2Tuples = hop.DB.Table("hop2").Len()
	env.want.hop2Table = faurelog.FormatDatabase(one)

	// Known by construction: the per-team policies cover every subnet,
	// and an unconditioned self-loop violates the loop-freedom target.
	env.want.verdict[readTeams], env.want.level[readTeams] = verify.Holds.String(), "category-i"
	env.want.verdict[readLoopAdd], env.want.level[readLoopAdd] = verify.Violated.String(), "direct"
	return nil
}

// schedule generates the phase's requests from the seed: reads and
// updates at fixed rates, the i-th request of a stream due at a seeded
// uniform time within the i-th period, so the two streams do not lock
// into one phase (which would make the same read slots meet every
// withdrawal); the reads cycle through shuffled copies of readBlock,
// so every run has the same mix; every DeleteEvery-th update withdraws
// the latest announcement still in. Withdrawals are the slow updates,
// so at one in five update_p90_ms is the median withdrawal.
func (env *serveEnv) schedule(phase string, load time.Duration) (reads, writes []request) {
	rnd := rand.New(rand.NewSource(env.cfg.Seed))
	sz := env.sz
	var kinds []int
	for i := 0; ; i++ {
		due := time.Duration((float64(i) + rnd.Float64()) / sz.ReadRate * float64(time.Second))
		if due >= load {
			break
		}
		if len(kinds) == 0 {
			kinds = append(kinds, readBlock...)
			rnd.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		k := kinds[0]
		kinds = kinds[1:]
		var body any
		switch k {
		case readSelfLoop:
			body = map[string]any{"target": selfLoopTarget}
		case readTwoHop:
			body = map[string]any{"program": twoHopProgram, "pred": "hop2"}
		case readTeams:
			known := make([]string, len(env.teams.Known))
			for j, c := range env.teams.Known {
				known[j] = c.Program.String()
			}
			body = map[string]any{"target": env.teams.Target.Program.String(), "known": known, "no_state": true}
		case readLoopAdd:
			body = map[string]any{"target": loopTarget, "update": loopUpdate}
		}
		b, _ := json.Marshal(body) // maps of strings always marshal
		reads = append(reads, request{due: due, read: k, body: b})
	}
	var live []string
	for i := 0; ; i++ {
		due := time.Duration((float64(i) + rnd.Float64()) / sz.WriteRate * float64(time.Second))
		if due >= load {
			break
		}
		r := request{due: due, read: -1, id: fmt.Sprintf("%s-%d", phase, i), insert: true}
		fact := fmt.Sprintf("fwd('perfbench-%s-%d', %d, %d).", phase, i, 900000+2*i, 900001+2*i)
		if (i+1)%sz.DeleteEvery == 0 && len(live) > 0 {
			r.insert = false
			fact, live = live[len(live)-1], live[:len(live)-1]
			r.update = "-" + fact
		} else {
			live = append(live, fact)
			r.update = "+" + fact
		}
		writes = append(writes, r)
	}
	return reads, writes
}

// phaseResult is one load phase's outcomes.
type phaseResult struct {
	outs       []outcome
	errs       []string
	rejected   int
	walBytes   int64
	liveHeapMB float64
	mem        memDelta
	final      *serve.Generation
}

func (p *phaseResult) latency(f func(outcome) bool) []float64 {
	var out []float64
	for _, o := range p.outs {
		if f(o) {
			out = append(out, ms(o.done-o.req.due))
		}
	}
	return out
}

func (p *phaseResult) service(f func(outcome) bool) []float64 {
	var out []float64
	for _, o := range p.outs {
		if f(o) {
			out = append(out, ms(o.done-o.sent))
		}
	}
	return out
}

func (p *phaseResult) lateness() []float64 {
	out := make([]float64, len(p.outs))
	for i, o := range p.outs {
		out[i] = ms(o.late)
	}
	return out
}

// phase boots a server, runs the open-loop load for the given time,
// stops everything it started, and checks every response.
func (env *serveEnv) phase(name string, load time.Duration, tr *tracer, reg *obs.Registry) (*phaseResult, error) {
	wal := filepath.Join(env.cfg.Out, "serve-"+name+".wal")
	_ = os.Remove(wal)
	defer os.Remove(wal)
	id := tr.begin(0, "serve", "serve.New")
	srv, err := serve.New(env.serveConfig(wal, reg))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	reads, writes := env.schedule(name, load)
	before := readMem()
	var wg sync.WaitGroup
	outs := make([][]outcome, 2)
	for i, reqs := range [][]request{reads, writes} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = stream(url, reqs, tr, [2]string{"reads", "updates"}[i])
		}()
	}
	wg.Wait()

	p := &phaseResult{final: srv.Current()}
	p.mem.add(before, readMem())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	if st, err := os.Stat(wal); err == nil {
		p.walBytes = st.Size()
	}

	p.outs = append(outs[0], outs[1]...)
	for i := range p.outs {
		if msg := env.checkOutcome(&p.outs[i]); msg != "" {
			p.errs = append(p.errs, msg)
		}
		if p.outs[i].status == http.StatusTooManyRequests {
			p.rejected++
		}
		p.outs[i].body = nil // the benchmark's copy; not the server's heap
	}
	p.liveHeapMB = liveHeapMB()
	return p, nil
}

// stream sends reqs over one connection, each at its due time or as
// soon as the previous one has finished. A dispatcher goroutine
// releases each request at its due time and records how late it woke.
func stream(url string, reqs []request, tr *tracer, name string) []outcome {
	client := &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	type ready struct {
		req  request
		late time.Duration
	}
	// Sized to the schedule: the dispatcher never blocks, so its
	// lateness measures only its own wake-ups.
	queue := make(chan ready, len(reqs))
	start := time.Now()
	go func() {
		defer close(queue)
		for _, r := range reqs {
			time.Sleep(time.Until(start.Add(r.due)))
			queue <- ready{r, time.Since(start) - r.due}
		}
	}()
	root := tr.begin(0, benchLayer, name)
	defer tr.end(root)
	var out []outcome
	for q := range queue {
		o := outcome{req: q.req, late: q.late, sent: time.Since(start)}
		id := tr.begin(root, "serve", "POST "+endpoint(q.req))
		o.status, o.body, o.err = send(client, url, q.req)
		tr.end(id)
		o.done = time.Since(start)
		out = append(out, o)
	}
	return out
}

func endpoint(r request) string {
	switch {
	case r.read < 0:
		return "/v1/update"
	case r.read == readTwoHop:
		return "/v1/query"
	default:
		return "/v1/verify"
	}
}

func send(client *http.Client, url string, r request) (int, []byte, error) {
	var req *http.Request
	var err error
	if r.read < 0 {
		req, err = http.NewRequest("POST", url+endpoint(r), bytes.NewBufferString(r.update))
		if err == nil {
			req.Header.Set("X-Faure-Update-Id", r.id)
		}
	} else {
		req, err = http.NewRequest("POST", url+endpoint(r), bytes.NewReader(r.body))
	}
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// checkOutcome compares one response with its expected answer and
// returns a description of the mismatch ("" when it is right).
func (env *serveEnv) checkOutcome(o *outcome) string {
	what := "update " + o.req.update
	if o.req.read >= 0 {
		what = readKindName[o.req.read]
	}
	if o.err != nil {
		return fmt.Sprintf("%s: %v", what, o.err)
	}
	if o.status != http.StatusOK {
		return fmt.Sprintf("%s: status %d: %s", what, o.status, bytes.TrimSpace(o.body))
	}
	var resp struct {
		Verdict string `json:"verdict"`
		Level   string `json:"level"`
		Tuples  int    `json:"tuples"`
		Table   string `json:"table"`
		Applied bool   `json:"applied"`
	}
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return fmt.Sprintf("%s: bad response: %v", what, err)
	}
	o.level = resp.Level
	switch {
	case o.req.read < 0:
		if !resp.Applied {
			return what + ": not applied"
		}
	case o.req.read == readTwoHop:
		if resp.Tuples != env.want.hop2Tuples || resp.Table != env.want.hop2Table {
			return fmt.Sprintf("%s: %d tuples, want %d", what, resp.Tuples, env.want.hop2Tuples)
		}
	default:
		k := o.req.read
		if resp.Verdict != env.want.verdict[k] || resp.Level != env.want.level[k] {
			return fmt.Sprintf("%s: %s at %s, want %s at %s", what, resp.Verdict, resp.Level,
				env.want.verdict[k], env.want.level[k])
		}
	}
	return ""
}

// replays times, from outside the server, the library calls each
// request kind makes inside it, against the final generation.
func (env *serveEnv) replays(gen *serve.Generation, tr *tracer, m metricSet) error {
	root := tr.begin(0, benchLayer, "replays")
	defer tr.end(root)
	v := env.verifier()
	self := containment.MustConstraint("self-loop", selfLoopTarget)
	loop := containment.MustConstraint("loop", loopTarget)
	loopU, err := rewrite.ParseUpdate(loopUpdate)
	if err != nil {
		return err
	}
	announce := rewrite.Update{Inserts: []rewrite.Change{{Pred: "fwd",
		Values: []cond.Term{cond.Str("perfbench-replay"), cond.Int(990000), cond.Int(990001)}}}}
	withdrawn, err := rewrite.ApplyBudgeted(gen.Base, rewrite.Update{Deletes: announce.Inserts}, nil)
	if err != nil {
		return err
	}
	added := map[string][]ctable.Tuple{"fwd": {ctable.NewTuple(announce.Inserts[0].Values, nil)}}

	calls := []struct {
		metric, layer string
		fn            func() error
	}{
		{"rewrite.apply_ms", "rewrite", func() error {
			_, err := rewrite.ApplyBudgeted(gen.Base, announce, nil)
			return err
		}},
		{"faurelog.incr_ms", "faurelog", func() error {
			_, err := faurelog.EvalIncrement(env.prog, gen.DB, added, faurelog.Options{})
			return err
		}},
		{"faurelog.full_ms", "faurelog", func() error {
			_, err := faurelog.Eval(env.prog, withdrawn, faurelog.Options{})
			return err
		}},
		{"verify.category_i_ms", "verify", func() error {
			_, err := v.CategoryI(env.teams.Target, env.teams.Known)
			return err
		}},
		{"verify.category_ii_ms", "verify", func() error {
			_, err := v.CategoryII(loop, loopU, nil)
			return err
		}},
		{"verify.direct_ms", "verify", func() error {
			_, err := v.Direct(self, gen.DB)
			return err
		}},
		{"containment.subsumes_ms", "containment", func() error {
			_, err := containment.Subsumes(env.teams.Target, env.teams.Known, env.doms, env.teams.Schema)
			return err
		}},
	}
	for _, c := range calls {
		var times []float64
		for i := 0; i < env.sz.Replays; i++ {
			id := tr.begin(root, c.layer, c.metric)
			t0 := time.Now()
			err := c.fn()
			times = append(times, ms(time.Since(t0)))
			tr.end(id)
			if err != nil {
				return fmt.Errorf("%s: %w", c.metric, err)
			}
		}
		m.set(c.metric, median(times))
	}
	return nil
}
