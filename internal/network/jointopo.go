package network

import (
	"math/rand"
	"strconv"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/solver"
)

// JoinTopoConfig parameterises the join-stress workload: a fat-tree
// style topology (hosts under edge switches, aggregation switches per
// pod, a shared core layer) whose links carry link-state conditions
// and, for a few uplinks, a c-variable endpoint. The workload exists
// to exercise the cost-guided join planner: its queries are written
// with the fat relations first and the selective ones last, so the
// planner must reorder them to avoid the large intermediate joins
// written order would enumerate.
type JoinTopoConfig struct {
	// Pods is the number of pods (default 4).
	Pods int
	// Fanout is the per-pod tier width: Fanout edge switches and
	// Fanout aggregation switches per pod, Fanout core switches
	// globally, Fanout hosts per edge switch (default 2). Host count
	// is therefore Pods x Fanout^2.
	Fanout int
	// Targets is the size of the dst() table — the selective literal
	// the planner should hoist (default Fanout).
	Targets int
	// PoolSize is the link-state c-variable pool (default 6).
	PoolSize int
	// Seed fixes the link guards and the down() sample.
	Seed int64
}

func (c JoinTopoConfig) withDefaults() JoinTopoConfig {
	if c.Pods == 0 {
		c.Pods = 4
	}
	if c.Fanout == 0 {
		c.Fanout = 2
	}
	if c.Targets == 0 {
		c.Targets = c.Fanout
	}
	if c.PoolSize < 3 {
		c.PoolSize = 6
	}
	return c
}

// Node numbering keeps the tiers disjoint for any realistic size.
func (c JoinTopoConfig) coreID(i int) int64    { return int64(1 + i) }
func (c JoinTopoConfig) aggID(p, i int) int64  { return int64(1000 + p*c.Fanout + i) }
func (c JoinTopoConfig) edgeID(p, i int) int64 { return int64(100000 + p*c.Fanout + i) }
func (c JoinTopoConfig) hostID(i int) int64    { return int64(1000000 + i) }

// JoinTopology compiles the fat-tree state into a c-table database:
//
//	host(h, e)   — host h hangs off edge switch e
//	link(a, b)   — edge→agg and agg→core links, each guarded by a
//	               link-state condition; one uplink per pod has a
//	               c-variable core endpoint ($u)
//	core(c)      — the core switches (small, selective)
//	down(a, b)   — a sampled subset of links marked failed (negation
//	               target for avail)
//	dst(h)       — the Targets destination hosts (small, selective)
func JoinTopology(cfg JoinTopoConfig) *ctable.Database {
	cfg = cfg.withDefaults()
	rnd := rand.New(rand.NewSource(cfg.Seed))
	db := ctable.NewDatabase()

	pool := make([]string, cfg.PoolSize)
	base := []string{"x", "y", "z"}
	for i := range pool {
		if i < len(base) {
			pool[i] = base[i]
		} else {
			pool[i] = "l" + strconv.Itoa(i)
		}
		db.DeclareVar(pool[i], solver.BoolDomain())
	}
	// $u ranges over the core layer: the c-variable link endpoint.
	cores := make([]cond.Term, cfg.Fanout)
	for i := range cores {
		cores[i] = cond.Int(cfg.coreID(i))
	}
	db.DeclareVar("u", solver.EnumDomain(cores...))

	up := func() *cond.Formula {
		v := pool[rnd.Intn(len(pool))]
		return cond.Compare(cond.CVar(v), cond.Eq, cond.Int(1))
	}

	link := ctable.NewTable("link", "from", "to")
	down := ctable.NewTable("down", "from", "to")
	host := ctable.NewTable("host", "h", "e")
	core := ctable.NewTable("core", "c")
	dst := ctable.NewTable("dst", "h")

	for i := 0; i < cfg.Fanout; i++ {
		core.MustInsert(nil, cond.Int(cfg.coreID(i)))
	}
	nLinks := 0
	addLink := func(from, to cond.Term) {
		link.MustInsert(up(), from, to)
		nLinks++
		// Every 7th link is also failed: the negation target.
		if nLinks%7 == 0 {
			down.MustInsert(nil, from, to)
		}
	}
	hosts := 0
	for p := 0; p < cfg.Pods; p++ {
		for e := 0; e < cfg.Fanout; e++ {
			for a := 0; a < cfg.Fanout; a++ {
				addLink(cond.Int(cfg.edgeID(p, e)), cond.Int(cfg.aggID(p, a)))
			}
			for h := 0; h < cfg.Fanout; h++ {
				host.MustInsert(nil, cond.Int(cfg.hostID(hosts)), cond.Int(cfg.edgeID(p, e)))
				hosts++
			}
		}
		for a := 0; a < cfg.Fanout; a++ {
			for c := 0; c < cfg.Fanout; c++ {
				addLink(cond.Int(cfg.aggID(p, a)), cond.Int(cfg.coreID(c)))
			}
		}
		// One uplink per pod lands on a c-variable core: exercises the
		// index's c-variable candidate lists under multi-column probes.
		link.MustInsert(up(), cond.Int(cfg.aggID(p, 0)), cond.CVar("u"))
	}
	for i := 0; i < cfg.Targets && i < hosts; i++ {
		// Spread the targets across pods.
		dst.MustInsert(nil, cond.Int(cfg.hostID((i*hosts)/cfg.Targets)))
	}

	db.AddTable(link)
	db.AddTable(down)
	db.AddTable(host)
	db.AddTable(core)
	db.AddTable(dst)
	return db
}

// JoinStressProgram is the multi-way join query over the fat-tree
// state. The bodies are deliberately written worst-first — the fat
// relations lead and the selective literals (core, dst) trail — so
// written-order evaluation enumerates large intermediate joins that
// the cost-guided planner avoids by hoisting the selective literals:
//
//	avail — links not marked down (indexed negation)
//	route — host h reaches core c (4-way join)
//	pair  — hosts sharing a core, restricted to the dst() targets;
//	        written order joins route with itself before consulting
//	        dst, the planner starts from dst
func JoinStressProgram() *faurelog.Program {
	return faurelog.MustParse(`
		avail(a, b) :- link(a, b), not down(a, b).
		route(h, c) :- avail(e, a), avail(a, c), host(h, e), core(c).
		pair(h1, h2) :- route(h1, c), route(h2, c), dst(h2).
	`)
}

// JoinStress runs the workload and returns the pair table with the
// evaluation result (for statistics).
func JoinStress(cfg JoinTopoConfig, opts faurelog.Options) (*ctable.Table, *faurelog.Result, error) {
	return faurelog.EvalQuery(JoinStressProgram(), JoinTopology(cfg), "pair", opts)
}
