// Command faure-verify runs relative-complete verification (§5): the
// ladder of tests — category (i) with constraints only, category (ii)
// with the update, direct evaluation with the state — each giving a
// decisive answer when its level of information permits.
//
// With no flags it runs the paper's multi-team enterprise scenario:
// targets T1, T2 against the team policies C_lb and C_s under the
// Listing 4 update.
//
// Custom scenarios come from files:
//
//	faure-verify -target t.fl -known c1.fl -known c2.fl \
//	             [-update u.upd] [-state s.fdb]
//
// Constraint files are fauré-log programs deriving panic(); update
// files hold signed facts (+lb('R&D', GS). / -lb(Mkt, CS).); state
// files are c-table databases.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"faure"
	"faure/internal/obsflag"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var knownPaths multiFlag
	target := flag.String("target", "", "target constraint file (panic program)")
	flag.Var(&knownPaths, "known", "constraint file known to hold (repeatable)")
	updatePath := flag.String("update", "", "update file (+fact. / -fact.)")
	statePath := flag.String("state", "", "network state file (c-table database)")
	withUpdate := flag.Bool("builtin-update", true, "built-in scenario: include the Listing 4 update")
	withState := flag.Bool("builtin-state", true, "built-in scenario: include the concrete state")
	ob := obsflag.Register(flag.CommandLine)
	flag.Parse()

	if err := ob.Init(); err != nil {
		fmt.Fprintln(os.Stderr, "faure-verify:", err)
		os.Exit(1)
	}

	exhausted := false
	if *target == "" {
		exhausted = runBuiltin(*withUpdate, *withState, ob)
	} else if err := runFiles(*target, knownPaths, *updatePath, *statePath, ob, &exhausted); err != nil {
		_ = ob.Close(os.Stderr)
		fmt.Fprintln(os.Stderr, "faure-verify:", err)
		os.Exit(obsflag.ExitCode(err))
	}
	_ = ob.Close(os.Stderr)
	if exhausted {
		// Unknown because a budget tripped, not because information was
		// missing: distinct exit code so scripts can retry with more.
		os.Exit(obsflag.ExitUnknownBudget)
	}
}

func runBuiltin(withUpdate, withState bool, ob *obsflag.Flags) bool {
	v := &faure.Verifier{Doms: faure.EnterpriseDomains(), Schema: faure.EnterpriseSchema(),
		Obs: ob.Observer(), Budget: ob.Budget()}
	known := []faure.Constraint{faure.Clb(), faure.Cs()}
	update := faure.ListingFourUpdate()
	state := faure.EnterpriseState(false)

	fmt.Println("Scenario (§5): enterprise network managed by a TE team and a security team")
	fmt.Println("  known constraints: C_lb (TE policy), C_s (security policy)")
	fmt.Printf("  update: %v\n\n", update)

	exhausted := false
	for _, target := range []faure.Constraint{faure.T1(), faure.T2()} {
		var u *faure.Update
		if withUpdate {
			u = &update
		}
		var db *faure.Database
		if withState {
			db = state
		}
		if report(target.Name, v, target, known, u, db) {
			exhausted = true
		}
	}
	return exhausted
}

func runFiles(targetPath string, knownPaths []string, updatePath, statePath string, ob *obsflag.Flags, exhausted *bool) error {
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
	*exhausted = report(target.Name, v, target, known, update, state)
	return nil
}

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

// report prints one target's verdict; it returns true when the ladder
// degraded to Unknown because a budget tripped.
func report(name string, v *faure.Verifier, target faure.Constraint, known []faure.Constraint, u *faure.Update, db *faure.Database) bool {
	fmt.Printf("verifying %s:\n", name)
	rep, level, err := v.Ladder(target, known, u, db)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faure-verify:", err)
		os.Exit(obsflag.ExitCode(err))
	}
	fmt.Printf("  verdict: %s (decided at %s)\n", rep.Verdict, level)
	fmt.Printf("  reason:  %s\n", rep.Reason)
	if (rep.Verdict == faure.Violated || rep.Verdict == faure.Conditional) && db != nil {
		state := db
		if u != nil {
			if post, err := faure.ApplyUpdate(db, *u); err == nil {
				state = post
			}
		}
		exps, err := v.ExplainViolations(target, state)
		if err == nil && len(exps) > 0 {
			fmt.Println("  violation derivations:")
			for _, e := range exps {
				for _, line := range strings.Split(strings.TrimRight(e.String(), "\n"), "\n") {
					fmt.Printf("    %s\n", line)
				}
			}
		}
	}
	fmt.Println()
	return rep.Exhausted != nil
}
