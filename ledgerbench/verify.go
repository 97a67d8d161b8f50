package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// heldOutSeed is the seed no change is tuned on: --verify runs every
// workload on it, so a claim made on other seeds can be re-checked.
const heldOutSeed = 90210

// exactCounters are the paper's deterministic counters: two traced runs
// of one seed must report them identically on the read-only workloads.
var exactCounters = []string{
	"topk.sorted_accesses_per_query",
	"core.evaluated_per_query",
	"core.phase3_pulled_per_query",
	"storage.seq_pages_per_query",
	"storage.rand_reads_per_query",
	"shard.rpcs_per_query",
}

var exactWorkloads = []string{"analyze-uncached", "sharded-analyze"}

// summary is the last output line of a run.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// child runs one workload in a fresh process of this binary and parses
// its summary line.
func child(o options, workload string, seed int64, trace bool) (summary, error) {
	self, err := os.Executable()
	if err != nil {
		return summary{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", t, "--workdir", o.workdir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return summary{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var s summary
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return summary{}, fmt.Errorf("%s seed %d: summary line: %w", workload, seed, err)
	}
	return s, nil
}

// runVerify runs the exact-counter repeat check (two traced runs of
// --seed on each read-only workload) and the held-out seed over every
// workload, prints what it found, and fails if either check does.
func runVerify(o options) error {
	bad := 0
	for _, w := range exactWorkloads {
		a, err := child(o, w, o.seed, true)
		if err != nil {
			return err
		}
		b, err := child(o, w, o.seed, true)
		if err != nil {
			return err
		}
		for _, name := range exactCounters {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				fmt.Printf("exact counter mismatch: %s %s seed %d: %v then %v\n", w, name, o.seed, a.Metrics[name].Value, b.Metrics[name].Value)
				bad++
			} else {
				fmt.Printf("exact counter repeats: %s %s seed %d: %v\n", w, name, o.seed, a.Metrics[name].Value)
			}
		}
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, w := range names {
		s, err := child(o, w, heldOutSeed, false)
		if err != nil {
			return err
		}
		fmt.Printf("held-out seed %d: %s attempted %d failed %d error_rate %g correct %v\n",
			heldOutSeed, w, s.Attempted, s.Failed, float64(s.Failed)/float64(s.Attempted), s.Correct)
		if s.Failed != 0 || !s.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("verify: %d check(s) failed", bad)
	}
	fmt.Println("verify: exact counters repeat and the held-out seed runs clean")
	return nil
}
