package verify

// Explainability for verification reports: ExplainLadder runs the
// relative-complete ladder and then answers the operator questions a
// bare Report leaves open — *why* is the verdict what it is, which
// atoms over which c-variables are undecided, which single link-state
// resolutions would flip the verdict, and (when the state is known)
// the full derivation trees of the satisfiable panic tuples, walked
// backwards through the provenance the evaluation recorded.

import (
	"fmt"
	"sort"
	"strings"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/containment"
	"faure/internal/ctable"
	"faure/internal/faurelog"
	"faure/internal/guard"
	"faure/internal/prov"
	"faure/internal/rewrite"
	"faure/internal/solver"
)

// Flip is one single-variable resolution that decides the constraint:
// learning Var = Value would make the verdict Result ("holds" or
// "violated") regardless of the remaining unknowns.
type Flip struct {
	Var    string `json:"var"`
	Value  string `json:"value"`
	Result string `json:"result"`
}

// ReportExplanation is a Report unfolded for operators: the verdict
// with its deciding level, the violation condition's undecided atoms
// and c-variables, the minimal single-variable resolutions that would
// decide the question, and provenance-backed derivation trees of the
// violating panic tuples.
type ReportExplanation struct {
	Target  string `json:"target"`
	Verdict string `json:"verdict"`
	// Level is the ladder rung that decided (category-i, category-ii,
	// direct, exhausted).
	Level  string `json:"level"`
	Reason string `json:"reason"`
	// BudgetExhausted distinguishes Unknown-by-budget from
	// Unknown-by-information.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	// ViolationCond is the condition under which the constraint is
	// violated (Conditional/Violated verdicts on a known state).
	ViolationCond string `json:"violation_cond,omitempty"`
	// UndecidedAtoms are the atomic comparisons of the violation
	// condition — the concrete facts whose truth is unknown.
	UndecidedAtoms []string `json:"undecided_atoms,omitempty"`
	// CVars are the c-variables the verdict depends on.
	CVars []string `json:"cvars,omitempty"`
	// Flips are the single-variable resolutions that would decide the
	// constraint one way or the other.
	Flips []Flip `json:"flips,omitempty"`
	// Derivations are the provenance trees of the satisfiable panic
	// tuples (capped at maxDerivations).
	Derivations []*prov.Tree `json:"derivations,omitempty"`
	// SatCalls/CacheHits account the explanation's own solver work.
	SatCalls  int64 `json:"sat_calls,omitempty"`
	CacheHits int64 `json:"cache_hits,omitempty"`
}

const (
	// maxDerivations caps how many panic derivation trees one
	// explanation carries.
	maxDerivations = 8
	// maxFlipChecks caps the solver probes spent looking for deciding
	// single-variable resolutions.
	maxFlipChecks = 100
)

// ExplainLadder runs the verification ladder and explains its answer.
// known/u/db are as in Ladder: u and db may be nil; with a state (db)
// the explanation includes provenance-backed derivation trees of every
// satisfiable panic tuple.
func (v *Verifier) ExplainLadder(target containment.Constraint, known []containment.Constraint, u *rewrite.Update, db *ctable.Database) (x *ReportExplanation, err error) {
	defer guard.Recover("verify.ExplainLadder", &err)
	rep, level, err := v.Ladder(target, known, u, db)
	if err != nil {
		return nil, err
	}
	x = &ReportExplanation{
		Target:          target.Name,
		Verdict:         rep.Verdict.String(),
		Level:           level,
		Reason:          rep.Reason,
		BudgetExhausted: rep.Exhausted != nil,
	}
	// focus is the condition whose resolution decides the question.
	var focus *cond.Formula
	if rep.ViolationCond != nil && !rep.ViolationCond.IsFalse() {
		focus = rep.ViolationCond
	}
	if db != nil && !x.BudgetExhausted {
		state := db
		if u != nil {
			state, err = rewrite.ApplyBudgeted(db, *u, v.Budget)
			if err != nil {
				if _, ok := budget.As(err); ok {
					x.BudgetExhausted = true
					return x, nil
				}
				return nil, err
			}
		}
		if err := v.explainState(x, target, state, &focus); err != nil {
			return nil, err
		}
	}
	if focus != nil && !focus.IsFalse() && !focus.IsTrue() {
		x.ViolationCond = focus.String()
		x.CVars = append([]string(nil), focus.CVars()...)
		sort.Strings(x.CVars)
		seen := map[string]bool{}
		for _, a := range focus.Atoms() {
			s := a.String()
			if !seen[s] {
				seen[s] = true
				x.UndecidedAtoms = append(x.UndecidedAtoms, s)
			}
		}
		sort.Strings(x.UndecidedAtoms)
		if err := v.findFlips(x, focus, stateDoms(db, v.Doms)); err != nil {
			return nil, err
		}
	} else if db == nil && x.Verdict == Unknown.String() {
		// No state to evaluate: the best we can point at is the
		// c-variables the target's own conditions mention.
		x.CVars = scanCVars(target.Program)
	}
	return x, nil
}

// explainState evaluates the target on the known state with provenance
// recording, collects the violation condition from the satisfiable
// panic tuples, and attaches their derivation trees.
func (v *Verifier) explainState(x *ReportExplanation, target containment.Constraint, state *ctable.Database, focus **cond.Formula) error {
	trees, violation, st, err := v.panicDerivations(target, state, maxDerivations)
	x.Derivations = append(x.Derivations, trees...)
	x.SatCalls += int64(st.SatCalls)
	x.CacheHits += int64(st.CacheHits)
	if err != nil {
		if _, ok := budget.As(err); !ok {
			return err
		}
		x.BudgetExhausted = true
	}
	if !violation.IsFalse() {
		*focus = violation
	}
	return nil
}

// ExplainViolations evaluates the constraint with provenance recording
// and returns the derivation tree of every satisfiable panic tuple —
// why the constraint is (conditionally) violated on this state. An
// empty slice means the constraint holds; a budget trip is returned as
// its *budget.Exceeded error.
func (v *Verifier) ExplainViolations(target containment.Constraint, db *ctable.Database) (out []*prov.Tree, err error) {
	defer guard.Recover("verify.ExplainViolations", &err)
	out, _, _, err = v.panicDerivations(target, db, -1)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// panicDerivations evaluates the target on state with provenance
// recording and walks its satisfiable panic tuples: it returns their
// disjoined condition, the derivation trees of the first limit of them
// (limit < 0: all) and the solver work the walk cost. A budget trip,
// in the evaluation or in the solver, comes back as a *budget.Exceeded
// error beside whatever was gathered before it.
func (v *Verifier) panicDerivations(target containment.Constraint, state *ctable.Database, limit int) (trees []*prov.Tree, violation *cond.Formula, st solver.Stats, err error) {
	violation = cond.False()
	rec := prov.NewRecorder(0)
	res, err := faurelog.Eval(target.Program, state, faurelog.Options{
		Prov: rec, Observer: v.Obs, Budget: v.Budget,
	})
	if err != nil {
		return nil, violation, st, err
	}
	if res.Truncated != nil {
		return nil, violation, st, res.Truncated
	}
	tbl := res.DB.Table(containment.PanicPred)
	if tbl == nil {
		return nil, violation, st, nil
	}
	s := solver.New(state.Doms)
	s.SetBudget(v.Budget)
	defer func() { st = s.Stats() }()
	xp := prov.NewExplainer(rec, res.DB)
	for _, tp := range tbl.Tuples {
		sat, err := s.Satisfiable(tp.Condition())
		if err != nil {
			return trees, violation, st, err
		}
		if !sat {
			continue
		}
		violation = cond.Or(violation, tp.Condition())
		if limit < 0 || len(trees) < limit {
			trees = append(trees, xp.Explain(containment.PanicPred, tp))
		}
	}
	return trees, violation, st, nil
}

// findFlips probes single-variable resolutions of the violation
// condition: substituting Var = Value and asking whether the residual
// is contradictory (constraint holds) or valid (constraint violated).
// Variables are tried in sorted order under a global probe cap.
func (v *Verifier) findFlips(x *ReportExplanation, violation *cond.Formula, doms solver.Domains) error {
	s := solver.New(doms)
	s.SetBudget(v.Budget)
	checks := 0
	for _, name := range x.CVars {
		d, ok := doms[name]
		if !ok || !d.Finite() {
			continue
		}
		for _, val := range d.Values {
			if checks >= maxFlipChecks {
				return nil
			}
			checks++
			g := violation.Subst(map[string]cond.Term{name: val})
			var result string
			switch {
			case g.IsFalse():
				result = "holds"
			case g.IsTrue():
				result = "violated"
			default:
				sat, err := s.Satisfiable(g)
				if err != nil {
					if _, ok := budget.As(err); ok {
						x.BudgetExhausted = true
						return nil
					}
					return err
				}
				if !sat {
					result = "holds"
					break
				}
				valid, err := s.Valid(g)
				if err != nil {
					if _, ok := budget.As(err); ok {
						x.BudgetExhausted = true
						return nil
					}
					return err
				}
				if valid {
					result = "violated"
				}
			}
			if result != "" {
				x.Flips = append(x.Flips, Flip{Var: name, Value: val.String(), Result: result})
			}
		}
	}
	st := s.Stats()
	x.SatCalls += int64(st.SatCalls)
	x.CacheHits += int64(st.CacheHits)
	return nil
}

// stateDoms prefers the state's declared domains (they carry the
// link-state variables) and falls back to the verifier's.
func stateDoms(db *ctable.Database, vd solver.Domains) solver.Domains {
	if db != nil && len(db.Doms) > 0 {
		return db.Doms
	}
	return vd
}

// scanCVars extracts the $-prefixed c-variable names a program's rules
// mention, textually (used only when no state is available to evaluate
// conditions on).
func scanCVars(prog *faurelog.Program) []string {
	seen := map[string]bool{}
	for _, r := range prog.Rules {
		s := r.String()
		for i := 0; i < len(s); i++ {
			if s[i] != '$' {
				continue
			}
			j := i + 1
			for j < len(s) && (isIdentByte(s[j])) {
				j++
			}
			if j > i+1 {
				seen[s[i+1:j]] = true
			}
			i = j
		}
	}
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func isIdentByte(b byte) bool {
	return b == '_' || ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

// String renders the explanation for terminals.
func (x *ReportExplanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s (decided at %s)\n", x.Target, x.Verdict, x.Level)
	fmt.Fprintf(&b, "  reason: %s\n", x.Reason)
	if x.BudgetExhausted {
		b.WriteString("  budget exhausted: the verdict degraded to unknown for resource, not information, reasons\n")
	}
	if x.ViolationCond != "" {
		fmt.Fprintf(&b, "  violated exactly when: %s\n", x.ViolationCond)
	}
	if len(x.UndecidedAtoms) > 0 {
		fmt.Fprintf(&b, "  undecided atoms: %s\n", strings.Join(x.UndecidedAtoms, " ; "))
	}
	if len(x.CVars) > 0 {
		names := make([]string, len(x.CVars))
		for i, v := range x.CVars {
			names[i] = "$" + v
		}
		fmt.Fprintf(&b, "  c-variables: %s\n", strings.Join(names, ", "))
	}
	for _, f := range x.Flips {
		fmt.Fprintf(&b, "  resolving $%s = %s decides it: %s\n", f.Var, f.Value, f.Result)
	}
	if x.SatCalls > 0 {
		fmt.Fprintf(&b, "  solver: %d sat calls, %d cache hits\n", x.SatCalls, x.CacheHits)
	}
	for i, d := range x.Derivations {
		fmt.Fprintf(&b, "  violation derivation %d:\n", i+1)
		for _, line := range strings.Split(strings.TrimRight(d.String(), "\n"), "\n") {
			b.WriteString("    " + line + "\n")
		}
	}
	return b.String()
}
