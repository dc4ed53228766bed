package main

// faure explain — provenance-backed explainability.
//
// Tuple mode answers "why is this tuple in the result": the program is
// evaluated with provenance recording and the tuple's derivation tree
// is walked back to the input facts.
//
//	faure explain -db state.fdb -program query.fl -pred reach [-tuple "1, 4"]
//
// Verify mode answers "why is this verdict what it is" — and, for
// Unknown/Conditional, *what is missing*: the undecided atoms, their
// c-variables, and the single-variable resolutions that would decide
// the constraint.
//
//	faure explain -target t.fl [-known c.fl]... [-update u.upd] [-state s.fdb]
//
// Both modes print text by default and structured JSON with -json.
// With -serve (and -debug-addr), tuple mode keeps the process alive
// serving the trees on /debug/explain until interrupted.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"faure"
	"faure/internal/obsflag"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func loadConstraint(path string) (faure.Constraint, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return faure.Constraint{}, err
	}
	prog, err := faure.Parse(string(src))
	if err != nil {
		return faure.Constraint{}, fmt.Errorf("%s: %w", path, err)
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return faure.NewConstraint(name, prog)
}

type explainJSON struct {
	Pred    string            `json:"pred"`
	Matched int               `json:"matched"`
	Trees   []*faure.ProvTree `json:"explanations"`
	Stats   faure.ProvStats   `json:"stats"`
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	// Tuple mode.
	dbPath := fs.String("db", "", "database file (tuple mode)")
	progPath := fs.String("program", "", "fauré-log program file (tuple mode)")
	pred := fs.String("pred", "", "derived predicate to explain (tuple mode)")
	tuple := fs.String("tuple", "", "data values of one tuple, e.g. '1, 4' (empty = every tuple of -pred)")
	serve := fs.Bool("serve", false, "keep serving the trees on /debug/explain (requires -debug-addr) until interrupted")
	provCap := fs.Int("prov-cap", 0, "bound provenance memory to the N most recent edges (0 = keep all)")
	// Verify mode.
	targetPath := fs.String("target", "", "target constraint file (verify mode)")
	var knownPaths multiFlag
	fs.Var(&knownPaths, "known", "constraint file known to hold (repeatable)")
	updatePath := fs.String("update", "", "update file (+fact. / -fact.)")
	statePath := fs.String("state", "", "network state file (c-table database)")
	jsonOut := fs.Bool("json", false, "print structured JSON instead of text")
	ob := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := ob.Init(); err != nil {
		return err
	}
	defer func() { _ = ob.Close(os.Stderr) }()
	switch {
	case *targetPath != "":
		return explainVerify(*targetPath, knownPaths, *updatePath, *statePath, *jsonOut, ob)
	case *dbPath != "" && *progPath != "":
		return explainTuples(*dbPath, *progPath, *pred, *tuple, *provCap, *jsonOut, *serve, ob)
	default:
		return fmt.Errorf("explain requires either -db and -program (tuple mode) or -target (verify mode)")
	}
}

// normDataKey maps the user's tuple spelling — "(1, 4)", "1, 4" or
// "1|4" — onto ctable's canonical |-joined data key.
func normDataKey(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "(")
	s = strings.TrimSuffix(s, ")")
	if s == "" {
		return ""
	}
	sep := ","
	if strings.Contains(s, "|") {
		sep = "|"
	}
	parts := strings.Split(s, sep)
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return strings.Join(parts, "|")
}

func explainTuples(dbPath, progPath, pred, tuple string, provCap int, jsonOut, serve bool, ob *obsflag.Flags) error {
	db, err := loadDB(dbPath)
	if err != nil {
		return err
	}
	prog, err := loadProgram(progPath)
	if err != nil {
		return err
	}
	rec := faure.NewProvenance(provCap)
	res, err := faure.Eval(prog, db, faure.Options{
		Prov: rec, Observer: ob.Observer(), Budget: ob.Budget(),
	})
	if err != nil {
		return err
	}
	log := ob.Logger()
	st := rec.Stats()
	log.Info("provenance recorded", "edges", st.Recorded, "parents", st.Parents, "evicted", st.Evicted)
	x := faure.NewProvExplainer(rec, res.DB)
	if serve {
		srv := ob.DebugServer()
		if srv == nil {
			return fmt.Errorf("-serve requires -debug-addr")
		}
		srv.Handle("/debug/explain", x.HTTPHandler())
		fmt.Printf("serving derivation trees on http://%s/debug/explain (interrupt to stop)\n", srv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		select {
		case <-sig:
		case <-srv.Done():
		}
		signal.Stop(sig)
		return nil
	}
	if pred == "" {
		return fmt.Errorf("tuple mode requires -pred (or -serve to browse over HTTP)")
	}
	if res.DB.Table(pred) == nil {
		return fmt.Errorf("no table %q in the result", pred)
	}
	tuples := x.Find(pred, normDataKey(tuple))
	if len(tuples) == 0 {
		if tuple != "" {
			return fmt.Errorf("no tuple %s(%s) in the result", pred, tuple)
		}
		return fmt.Errorf("table %q is empty", pred)
	}
	trees := make([]*faure.ProvTree, len(tuples))
	for i, tp := range tuples {
		trees[i] = x.Explain(pred, tp)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(explainJSON{Pred: pred, Matched: len(tuples), Trees: trees, Stats: rec.Stats()}); err != nil {
			return err
		}
	} else {
		fmt.Printf("derivations of %s:\n", pred)
		for _, tr := range trees {
			fmt.Print(tr)
		}
	}
	if res.Truncated != nil {
		return fmt.Errorf("result incomplete: %w", res.Truncated)
	}
	return nil
}

func explainVerify(targetPath string, knownPaths []string, updatePath, statePath string, jsonOut bool, ob *obsflag.Flags) error {
	target, err := loadConstraint(targetPath)
	if err != nil {
		return err
	}
	var known []faure.Constraint
	for _, p := range knownPaths {
		c, err := loadConstraint(p)
		if err != nil {
			return err
		}
		known = append(known, c)
	}
	var update *faure.Update
	if updatePath != "" {
		src, err := os.ReadFile(updatePath)
		if err != nil {
			return err
		}
		u, err := faure.ParseUpdate(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", updatePath, err)
		}
		update = &u
	}
	var state *faure.Database
	doms := faure.Domains{}
	if statePath != "" {
		src, err := os.ReadFile(statePath)
		if err != nil {
			return err
		}
		state, err = faure.ParseDatabase(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", statePath, err)
		}
		doms = state.Doms
	}
	v := &faure.Verifier{Doms: doms, Obs: ob.Observer(), Budget: ob.Budget()}
	x, err := v.ExplainLadder(target, known, update, state)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(x); err != nil {
			return err
		}
	} else {
		fmt.Print(x)
	}
	if x.BudgetExhausted {
		_ = ob.Close(os.Stderr)
		os.Exit(obsflag.ExitUnknownBudget)
	}
	return nil
}
