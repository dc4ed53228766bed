package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// childEnv carries a child's job. A batch iteration runs in a child
// process of its own, so the global condition intern table and the
// heap start empty, as they do for a command-line user.
const childEnv = "PERFBENCH_CHILD"

type childJob struct {
	Config config `json:"config"`
	Iter   int    `json:"iter"`
}

// runChild runs one batch iteration in a fresh process and waits for
// it to exit.
func runChild(exe string, cfg config, iter int) (batchSample, error) {
	job, err := json.Marshal(childJob{cfg, iter})
	if err != nil {
		return batchSample{}, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(job))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return batchSample{}, fmt.Errorf("%s iteration %d: %w", cfg.Workload, iter, err)
	}
	var s batchSample
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		return batchSample{}, fmt.Errorf("%s iteration %d: bad output: %w", cfg.Workload, iter, err)
	}
	return s, nil
}

// childMain runs the job in the environment and prints its sample.
func childMain(spec string) int {
	var job childJob
	if err := json.Unmarshal([]byte(spec), &job); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	var s batchSample
	switch job.Config.Workload {
	case "table4-rib":
		s = runTable4(job.Config, job.Iter)
	case "fattree-join":
		s = runJoin(job.Config, job.Iter)
	default:
		fmt.Fprintln(os.Stderr, "perfbench child: not a batch workload:", job.Config.Workload)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}
