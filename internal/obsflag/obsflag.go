// Package obsflag binds the cross-cutting command-line flags shared by
// the faure CLIs: observability (-metrics selects a report format,
// text or json, written to stderr on exit; -debug-addr serves the live
// pprof/expvar/metrics endpoint while the command runs) and resource
// governance (-timeout, -max-solver-steps, -max-tuples build one
// shared budget tracker for the whole run).
package obsflag

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"faure/internal/budget"
	"faure/internal/cond"
	"faure/internal/obs"
)

// Exit codes shared by the faure commands, so scripts can tell a
// decided run from one that degraded to Unknown because a budget
// tripped, and both from a real failure.
const (
	// ExitDecided: the command completed (verification decided, or the
	// evaluation ran to fixpoint).
	ExitDecided = 0
	// ExitError: a real error (bad input, internal failure).
	ExitError = 1
	// ExitUsage: bad command line.
	ExitUsage = 2
	// ExitUnknownBudget: a resource budget tripped; the output is the
	// partial result / an Unknown verdict, not garbage and not an error.
	ExitUnknownBudget = 3
)

// ExitCode maps a command's error to the exit code contract above.
func ExitCode(err error) int {
	switch _, budgeted := budget.As(err); {
	case err == nil:
		return ExitDecided
	case budgeted:
		return ExitUnknownBudget
	default:
		return ExitError
	}
}

// Flags holds the parsed cross-cutting flags and their runtime state.
type Flags struct {
	metrics   *string
	debugAddr *string
	timeout   *time.Duration
	maxSteps  *int64
	maxTuples *int64
	logJSON   *bool
	logLevel  *string
	reg       *obs.Registry
	srv       *obs.DebugServer
	bud       *budget.B
	budBuilt  bool
	logger    *slog.Logger
	level     slog.Level
}

// Register binds the shared flags on the flag set.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	f.metrics = fs.String("metrics", "", "print collected metrics on exit: text or json")
	f.debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
	f.timeout = fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = unlimited); exceeding it degrades to a partial result and exit code 3")
	f.maxSteps = fs.Int64("max-solver-steps", 0, "solver search-step budget (0 = unlimited)")
	f.maxTuples = fs.Int64("max-tuples", 0, "derived-tuple budget (0 = unlimited)")
	f.logJSON = fs.Bool("log-json", false, "emit structured logs as JSON lines instead of logfmt text")
	f.logLevel = fs.String("log-level", "warn", "minimum structured-log level: debug, info, warn or error")
	return f
}

// Limits returns the budget limits the flags request (zero fields are
// unlimited).
func (f *Flags) Limits() budget.Limits {
	return budget.Limits{Timeout: *f.timeout, SolverSteps: *f.maxSteps, Tuples: *f.maxTuples}
}

// Budget returns the run's shared budget tracker, built once on first
// call — hand the same value to every layer so the limits govern the
// run as a whole. Nil (no checks at all) when no budget flag was given.
func (f *Flags) Budget() *budget.B {
	if !f.budBuilt {
		f.budBuilt = true
		if lim := f.Limits(); lim != (budget.Limits{}) {
			f.bud = budget.New(nil, lim)
		}
	}
	return f.bud
}

// Init validates the flags and, when observation is requested, creates
// the registry and starts the debug endpoint. Call after flag parsing.
func (f *Flags) Init() error {
	switch *f.metrics {
	case "", "text", "json":
	default:
		return fmt.Errorf("unknown -metrics format %q (text or json)", *f.metrics)
	}
	level, err := obs.ParseLevel(*f.logLevel)
	if err != nil {
		return err
	}
	f.level = level
	if *f.metrics != "" || *f.debugAddr != "" {
		f.reg = obs.NewRegistry()
	}
	if *f.debugAddr != "" {
		srv, err := obs.ServeDebug(*f.debugAddr, f.reg)
		if err != nil {
			return err
		}
		f.srv = srv
	}
	return nil
}

// Observer returns the recording observer, or nil when no
// observability flag was given (so the hot paths stay un-instrumented).
func (f *Flags) Observer() obs.Observer {
	if f.reg == nil {
		return nil
	}
	return f.reg
}

// Registry exposes the underlying registry (nil when disabled).
func (f *Flags) Registry() *obs.Registry { return f.reg }

// DebugServer exposes the running debug endpoint (nil when
// -debug-addr was not given) so commands can mount extra handlers —
// the explain endpoint — after their state is built.
func (f *Flags) DebugServer() *obs.DebugServer { return f.srv }

// Logger returns the process logger, built lazily from -log-json and
// -log-level. Logs go to stderr (stdout is the command's data
// channel). Call after Init.
func (f *Flags) Logger() *slog.Logger {
	if f.logger == nil {
		f.logger = obs.NewLogger(os.Stderr, *f.logJSON, f.level)
	}
	return f.logger
}

// Close writes the metrics report to w in the selected format and
// shuts the debug endpoint down.
func (f *Flags) Close(w io.Writer) error {
	if f.srv != nil {
		_ = f.srv.Close()
	}
	if f.reg == nil || *f.metrics == "" {
		return nil
	}
	// Fold the process-wide condition intern-table counters into the
	// snapshot. The *_total names are process-cumulative, distinct from
	// the per-run eval.intern_* deltas an engine publishes.
	is := cond.InternStatsNow()
	f.reg.Count("cond.intern_hits_total", is.Hits)
	f.reg.Count("cond.intern_misses_total", is.Misses)
	f.reg.Count("cond.intern_evictions_total", is.Evictions)
	f.reg.SetGauge("cond.intern_live", float64(is.Live))
	snap := f.reg.Snapshot()
	var out string
	if *f.metrics == "json" {
		out = snap.JSON() + "\n"
	} else {
		out = snap.Text()
	}
	_, err := io.WriteString(w, out)
	return err
}
