package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/datalog"
	"faure/internal/solver"
)

// The answer check. A possible world assigns every c-variable a value
// from its domain. Reading the program's symbolic output in a world
// keeps the tuples whose condition is true there; the expected answer
// comes from internal/datalog, an engine that shares no evaluator code
// with faurelog, run over the input instantiated in the same world.

// world is one total assignment of the c-variables.
type world map[string]cond.Term

func (w world) lookup(name string) (cond.Term, bool) {
	v, ok := w[name]
	return v, ok
}

func (w world) int(name string) int64 { return w[name].I }

// sampleWorld draws a world uniformly from the finite domains.
func sampleWorld(rnd *rand.Rand, doms solver.Domains) world {
	names := make([]string, 0, len(doms))
	for n := range doms {
		names = append(names, n)
	}
	sort.Strings(names)
	w := world{}
	for _, n := range names {
		vals := doms[n].Values
		w[n] = vals[rnd.Intn(len(vals))]
	}
	return w
}

// eachRow calls fn with every row of t present in w: tuples whose
// condition evaluates true, with c-variable values replaced by their
// assignment (in a row buffer reused across calls). It builds no
// conditions, so reads leave the intern table alone.
func eachRow(t *ctable.Table, w world, fn func([]cond.Term)) error {
	if t == nil {
		return nil
	}
	var row []cond.Term
	for _, tp := range t.Tuples {
		switch tp.Condition().EvalPartial(w.lookup) {
		case 0:
			return fmt.Errorf("%s: condition %v undecided in world", t.Schema.Name, tp.Condition())
		case -1:
			continue
		}
		row = append(row[:0], tp.Values...)
		for i, v := range row {
			if v.IsCVar() {
				row[i] = w[v.S]
			}
		}
		fn(row)
	}
	return nil
}

// readWorld returns the rows of t present in w that keep accepts.
func readWorld(t *ctable.Table, w world, keep func([]cond.Term) bool) ([][]cond.Term, error) {
	var rows [][]cond.Term
	err := eachRow(t, w, func(r []cond.Term) {
		if keep == nil || keep(r) {
			rows = append(rows, append([]cond.Term(nil), r...))
		}
	})
	return rows, err
}

// oracle evaluates a datalog program over the rows of db present in w
// that keep accepts.
func oracle(prog *datalog.Program, db *ctable.Database, w world, keep func(table string, r []cond.Term) bool) (datalog.Instance, error) {
	edb := datalog.Instance{}
	for name, t := range db.Tables {
		rows, err := readWorld(t, w, func(r []cond.Term) bool { return keep(name, r) })
		if err != nil {
			return nil, err
		}
		rel := edb.Rel(name, t.Schema.Arity())
		for _, r := range rows {
			rel.Insert(r)
		}
	}
	return datalog.Eval(prog, edb)
}

func rowKey(r []cond.Term) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

func rowSet(rows [][]cond.Term) map[string]bool {
	s := make(map[string]bool, len(rows))
	for _, r := range rows {
		s[rowKey(r)] = true
	}
	return s
}

// compareRows reports how got differs from want as sets ("" if equal).
func compareRows(what string, got, want [][]cond.Term) string {
	g, x := rowSet(got), rowSet(want)
	missing, extra := 0, 0
	var example string
	for k := range x {
		if !g[k] {
			missing++
			if example == "" {
				example = "missing " + k
			}
		}
	}
	for k := range g {
		if !x[k] {
			extra++
			if example == "" {
				example = "extra " + k
			}
		}
	}
	if missing == 0 && extra == 0 {
		return ""
	}
	return fmt.Sprintf("%s: %d missing, %d extra rows (%s)", what, missing, extra, example)
}

// filterRows keeps the rows keep accepts.
func filterRows(rows [][]cond.Term, keep func([]cond.Term) bool) [][]cond.Term {
	var out [][]cond.Term
	for _, r := range rows {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// reachOracle and joinOracle restate the workloads' programs in the
// oracle's own syntax, with bodies ordered for its nested-loop joins.
var (
	reachOracle = mustDatalog(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).`)
	joinOracle = mustDatalog(`
		avail(a, b) :- link(a, b), not down(a, b).
		route(h, c) :- host(h, e), avail(e, a), avail(a, c), core(c).
		pair(h1, h2) :- dst(h2), route(h2, c), route(h1, c).`)
)

func mustDatalog(src string) *datalog.Program {
	p, err := datalog.Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// table4Out holds the result databases of q4-q5, q6, q7 and q8.
type table4Out struct {
	reach, q6, q7, q8 *ctable.Database
}

// checkTable4 compares the Table-4 outputs with the oracle in each
// world, on the sampled flows: reach must equal the datalog fixpoint,
// and q6-q8 must be reach restricted to their pinned nodes in worlds
// that satisfy the query's failure pattern and empty in the others.
// Reachability never crosses flows, so checking a sample of flows is
// exact for those flows.
func checkTable4(in *ctable.Database, out table4Out, worlds []world, flows map[string]bool) []string {
	inFlows := func(r []cond.Term) bool { return flows[r[0].S] }
	var errs []string
	for i, w := range worlds {
		inst, err := oracle(reachOracle, in, w, func(_ string, r []cond.Term) bool { return inFlows(r) })
		if err != nil {
			errs = append(errs, fmt.Sprintf("world %d: oracle: %v", i, err))
			continue
		}
		reach := inst.Rel("reach", 3).Rows()
		x, y, z := w.int("x"), w.int("y"), w.int("z")
		q6 := func([]cond.Term) bool { return x+y+z == 1 }
		q7 := func(r []cond.Term) bool { return q6(r) && y == 0 && r[1].I == q7Src && r[2].I == q7Dst }
		q8 := func(r []cond.Term) bool { return y+z < 2 && r[1].I == q8Src }
		for _, c := range []struct {
			name string
			db   *ctable.Database
			keep func([]cond.Term) bool
		}{{"reach", out.reach, nil}, {"t1", out.q6, q6}, {"t2", out.q7, q7}, {"t3", out.q8, q8}} {
			got, err := readWorld(c.db.Table(c.name), w, inFlows)
			if err != nil {
				errs = append(errs, fmt.Sprintf("world %d: %v", i, err))
				continue
			}
			want := reach
			if c.keep != nil {
				want = filterRows(reach, c.keep)
			}
			if d := compareRows(c.name, got, want); d != "" {
				errs = append(errs, fmt.Sprintf("world %d: %s", i, d))
			}
		}
	}
	return errs
}

// checkJoin compares the join-stress pair table with the oracle, for
// pairs whose first host is one of hosts. A host's routes depend only
// on its own host() row, so dropping the other hosts' rows from the
// oracle's input is exact for those pairs, as long as hosts holds
// every dst() host.
func checkJoin(in, out *ctable.Database, worlds []world, hosts map[int64]bool) []string {
	sampled := func(r []cond.Term) bool { return hosts[r[0].I] }
	var errs []string
	for i, w := range worlds {
		inst, err := oracle(joinOracle, in, w, func(table string, r []cond.Term) bool {
			return table != "host" || sampled(r)
		})
		if err != nil {
			errs = append(errs, fmt.Sprintf("world %d: oracle: %v", i, err))
			continue
		}
		got, err := readWorld(out.Table("pair"), w, sampled)
		if err != nil {
			errs = append(errs, fmt.Sprintf("world %d: %v", i, err))
			continue
		}
		if d := compareRows("pair", got, inst.Rel("pair", 2).Rows()); d != "" {
			errs = append(errs, fmt.Sprintf("world %d: %s", i, d))
		}
	}
	return errs
}
