// Command ledgerbench is the repository's benchmark: the layer ledger.
// It builds the serving stack in-process from the public constructors
// (engine.OpenDir, server.NewWithConfig/FromEngine, the shard
// coordinator over shard.NewHTTPBackends), drives it over loopback HTTP
// from at most two client connections, checks every answer against a
// brute-force oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output.
//
// Usage, from the repository root:
//
//	bash ledgerbench/run.sh --workload refine-sessions --seed 1 --seconds 30 --trace 0
//	bash ledgerbench/run.sh --verify    # exact-counter repeat check + held-out seed
//
// See ledgerbench/README.md for the workloads, the metrics and how to
// read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obs"
)

// options are one run's parameters.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed of the input streams (query weights, refinement steps, arrivals, writes)")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "ledgerbench"), "scratch directory for dataset files and trace output")
	verify := flag.Bool("verify", false, "run the exact-counter repeat check and the held-out seed over every workload, each run in a child process")
	flag.Parse()
	o.trace = *traceFlag == 1

	// The daemons log one JSON line per request; the benchmark keeps the
	// formatting cost but not the output.
	obs.SetLogOutput(io.Discard)

	if *verify {
		if err := runVerify(o); err != nil {
			fmt.Fprintln(os.Stderr, "ledgerbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "ledgerbench: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "ledgerbench: --seconds must be positive")
		os.Exit(2)
	}
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	workload  string
	seed      int64
	trace     bool
	correct   bool
	attempted int
	failed    int
	// gated holds the metrics of the last output line: the end-to-end
	// set of BENCHMARK.json (untraced) or the per-layer set (traced).
	gated map[string]metric
	// extra holds metrics printed on the report lines only: those not
	// defined on every workload (write latency) and those too noisy on a
	// small shared host to gate (the tail percentiles).
	extra map[string]metric
	notes []string
}

// print writes the human-readable report lines and then the JSON
// summary as the last line.
func (r *result) print(w io.Writer) error {
	mode := "end-to-end"
	if r.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s run\n", r.workload, r.seed, mode)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	printSet := func(title string, set map[string]metric) {
		if len(set) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
	printSet("metrics", r.gated)
	printSet("report-only metrics", r.extra)
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", r.attempted, r.failed, r.correct)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.gated})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
