// Package lossless checks the paper's central §4 property for a
// model + query pair: evaluating a fauré-log program once over the
// c-table database must be indistinguishable from evaluating it on
// every possible world separately. Downstream users building their own
// uncertain-network models can run the check on small instances to
// validate their encodings; the repository's own tests use it for
// Figure 1, the RIB workloads and random programs.
//
// The check enumerates every assignment of the given finite-domain
// c-variables; for each world it (a) instantiates the database
// concretely, (b) evaluates the program on the concrete instance with
// the same engine, and (c) compares the result with the instantiation
// of the single symbolic answer. Any discrepancy is reported with the
// offending world and tuple.
package lossless

import (
	"fmt"
	"sort"
	"strings"

	"faure/internal/cond"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/solver"
)

// Mismatch describes one loss-lessness violation: in the given world,
// the symbolic answer and the per-world answer disagree on a tuple.
type Mismatch struct {
	// World is the failing assignment.
	World map[string]cond.Term
	// Pred is the derived relation where the disagreement occurred.
	Pred string
	// Tuple is the data part in question.
	Tuple string
	// InSymbolic and InConcrete say where the tuple appeared.
	InSymbolic, InConcrete bool
}

// String renders the mismatch for test output.
func (m Mismatch) String() string {
	var w []string
	names := make([]string, 0, len(m.World))
	for n := range m.World {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w = append(w, fmt.Sprintf("$%s=%v", n, m.World[n]))
	}
	return fmt.Sprintf("world {%s}: %s(%s) symbolic=%v concrete=%v",
		strings.Join(w, " "), m.Pred, m.Tuple, m.InSymbolic, m.InConcrete)
}

// Check verifies loss-lessness of the program over the database for
// every assignment of the named c-variables (all must have finite
// domains; pass db.CVars() when every unknown is finite). It returns
// the list of mismatches — empty means the property holds — and stops
// early after limit mismatches (0 = no limit).
func Check(prog *faurelog.Program, db *ctable.Database, vars []string, limit int) ([]Mismatch, error) {
	return CheckWith(prog, db, vars, limit, faurelog.Options{})
}

// CheckWith is Check with the symbolic evaluation run under opts (an
// ablation such as NoAbsorb or NoIndex); every per-world evaluation
// keeps the default options, so it stays the reference.
func CheckWith(prog *faurelog.Program, db *ctable.Database, vars []string, limit int, opts faurelog.Options) ([]Mismatch, error) {
	symbolic, err := faurelog.Eval(prog, db, opts)
	if err != nil {
		return nil, fmt.Errorf("lossless: symbolic evaluation: %w", err)
	}
	idb := prog.IDB()
	s := solver.New(db.Doms)
	var mismatches []Mismatch
	var worldErr error
	err = s.Worlds(vars, func(assign map[string]cond.Term) bool {
		// (a) Instantiate the database.
		concrete, err := instantiate(db, assign)
		if err != nil {
			worldErr = err
			return false
		}
		// (b) Evaluate concretely.
		res, err := faurelog.Eval(prog, concrete, faurelog.Options{})
		if err != nil {
			worldErr = fmt.Errorf("lossless: concrete evaluation in world %v: %w", assign, err)
			return false
		}
		// (c) Compare per derived predicate.
		for pred := range idb {
			sym := instantiateSet(symbolic.DB.Table(pred), assign)
			con := instantiateSet(res.DB.Table(pred), nil)
			for tup := range sym {
				if !con[tup] {
					mismatches = append(mismatches, mismatch(assign, pred, tup, true, false))
				}
			}
			for tup := range con {
				if !sym[tup] {
					mismatches = append(mismatches, mismatch(assign, pred, tup, false, true))
				}
			}
		}
		return limit == 0 || len(mismatches) < limit
	})
	if worldErr != nil {
		return nil, worldErr
	}
	if err != nil {
		return nil, err
	}
	return mismatches, nil
}

func mismatch(assign map[string]cond.Term, pred, tup string, inSym, inCon bool) Mismatch {
	w := make(map[string]cond.Term, len(assign))
	for k, v := range assign {
		w[k] = v
	}
	return Mismatch{World: w, Pred: pred, Tuple: tup, InSymbolic: inSym, InConcrete: inCon}
}

// instantiate builds the concrete database of one world: values
// substituted, tuples kept exactly when their condition holds. A
// condition left undecided (it references a c-variable outside the
// enumerated set) is an error.
func instantiate(db *ctable.Database, assign map[string]cond.Term) (*ctable.Database, error) {
	out := ctable.NewDatabase()
	for name, d := range db.Doms {
		if _, enumerated := assign[name]; !enumerated {
			out.DeclareVar(name, d)
		}
	}
	for name, tbl := range db.Tables {
		nt := &ctable.Table{Schema: tbl.Schema}
		for _, tp := range tbl.Tuples {
			st := tp.Subst(assign)
			c := st.Condition()
			switch {
			case c.IsTrue():
				if err := nt.Insert(ctable.NewTuple(st.Values, cond.True())); err != nil {
					return nil, err
				}
			case c.IsFalse():
				// absent in this world
			default:
				return nil, fmt.Errorf("lossless: world %v leaves %s tuple condition undecided: %v", assign, name, c)
			}
		}
		out.AddTable(nt)
	}
	return out, nil
}

// instantiateSet collects the ground data parts present in the table
// under the assignment (nil = table already concrete): tuples whose
// substituted condition is true.
func instantiateSet(tbl *ctable.Table, assign map[string]cond.Term) map[string]bool {
	out := map[string]bool{}
	if tbl == nil {
		return out
	}
	for _, tp := range tbl.Tuples {
		st := tp
		if assign != nil {
			st = tp.Subst(assign)
		}
		if st.Condition().IsTrue() {
			out[st.DataKey()] = true
		}
	}
	return out
}
