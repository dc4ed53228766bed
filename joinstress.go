package faure

import (
	"faure/internal/budget"
	"faure/internal/guard"
	"faure/internal/network"
)

// JoinStressConfig parameterises the join-planner stress workload: a
// fat-tree-style topology with conditioned links (and a few
// c-variable link endpoints) under a multi-way join query whose rule
// bodies are written worst-first. It is the benchmark counterpart of
// Table 4's reachability sweep for the cost-guided join planner:
// written-order evaluation would enumerate large intermediate joins
// that the planner avoids.
type JoinStressConfig struct {
	// Hosts is the approximate host count; the topology is sized to
	// the nearest fat-tree shape (default 16).
	Hosts int
	// Seed fixes the link guards and failure sample.
	Seed int64
	// Options are passed to the evaluation.
	Options Options
}

// JoinStressResult is one run of the workload.
type JoinStressResult struct {
	// Hosts is the actual host count of the generated topology.
	Hosts int
	// Row carries the evaluation's full measurements under the query
	// name "join".
	Row Table4Row
	// Truncated is set when a budget tripped mid-evaluation; Row then
	// holds the partial run's statistics.
	Truncated *budget.Exceeded
}

// RunJoinStress generates the fat-tree state and evaluates the
// join-stress query over it, reporting the same per-query
// measurements as Table 4 rows.
func RunJoinStress(cfg JoinStressConfig) (result *JoinStressResult, err error) {
	defer guard.Recover("faure.RunJoinStress", &err)
	const fanout = 3
	pods := cfg.Hosts / (fanout * fanout)
	if pods < 1 {
		pods = 1
	}
	topo := network.JoinTopoConfig{Pods: pods, Fanout: fanout, Seed: cfg.Seed}
	tbl, res, err := network.JoinStress(topo, cfg.Options)
	if err != nil {
		return nil, err
	}
	tuples := 0
	if tbl != nil {
		tuples = tbl.Len()
	}
	return &JoinStressResult{
		Hosts:     pods * fanout * fanout,
		Row:       rowFromStats("join", res.Stats, tuples),
		Truncated: res.Truncated,
	}, nil
}
