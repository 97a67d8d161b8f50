package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// analyzeRate is analyze-uncached's offered load in requests per second:
// about a third of the two-connection closed-loop capacity of the stack
// at the commit that introduced this benchmark (2-core host). At half
// capacity, a stretch in which the host served the process 40 % slower
// saturated the stack and raised the median latency twelvefold.
const analyzeRate = 100

// setupReps is how many times an untraced run sets the stack up; setup_s
// is their median. Only the first setup serves the measured window.
const setupReps = 3

// workload is one named traffic mix over one deployment.
type workload struct {
	name  string
	build func(dir string, tr *tracer) (*stack, error)
	data  func() *dataset.Dataset // the served tuples, for the oracle
	open  bool                    // open loop at analyzeRate, else closed loop
	// sources returns one op source per client connection, drawing from
	// the seed's streams for purpose; model is the shared live-id view of
	// a writing workload, nil otherwise.
	sources func(s *stack, seed, purpose int64, model *writeModel) []source
	writes  bool
	sharded bool
}

var workloads = map[string]*workload{
	"analyze-uncached": {
		name:  "analyze-uncached",
		build: buildUncached,
		data:  func() *dataset.Dataset { return wsj(2) },
		open:  true,
		sources: func(s *stack, seed, purpose int64, _ *writeModel) []source {
			return []source{&uncachedSource{newDraws(s.sampler, seed, purpose, 0)}}
		},
	},
	"refine-sessions": {
		name:  "refine-sessions",
		build: buildSessions,
		data:  func() *dataset.Dataset { return wsj(1) },
		sources: func(s *stack, seed, purpose int64, _ *writeModel) []source {
			out := make([]source, closedClients)
			for i := range out {
				out[i] = &sessionSource{draws: newDraws(s.sampler, seed, purpose, i)}
			}
			return out
		},
	},
	"write-mix": {
		name:  "write-mix",
		build: buildWriteMix,
		data:  func() *dataset.Dataset { return wsj(2) },
		sources: func(s *stack, seed, purpose int64, model *writeModel) []source {
			out := make([]source, closedClients)
			for i := range out {
				out[i] = &sessionSource{draws: newDraws(s.sampler, seed, purpose, i), model: model}
			}
			return out
		},
		writes: true,
	},
	"sharded-analyze": {
		name:  "sharded-analyze",
		build: buildSharded,
		data:  stData,
		sources: func(s *stack, seed, purpose int64, _ *writeModel) []source {
			out := make([]source, closedClients)
			for i := range out {
				out[i] = &shardedSource{newDraws(s.sampler, seed, purpose, i)}
			}
			return out
		},
		sharded: true,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// streams derives independent, reproducible random streams from the
// seed: one per purpose and client.
func streams(seed int64, purpose int64) func(int) *rand.Rand {
	return func(i int) *rand.Rand {
		return rand.New(rand.NewSource(seed*1_000_003 + purpose*1009 + int64(i)))
	}
}

const (
	streamLoad = iota + 1
	streamArrivals
	streamWarmup
	streamCounters
	streamProbes
)

// setUp builds the stack in dir and warms it up: a few reads from their
// own stream, with /analyze bypassing the answer cache so the measured
// window starts with it empty.
func setUp(w *workload, seed int64, dir string, tr *tracer) (*stack, *httpClient, error) {
	s, err := w.build(dir, tr)
	if err != nil {
		return nil, nil, err
	}
	c := newHTTPClient(s.url, tr)
	src := w.sources(s, seed, streamWarmup, nil)[0]
	for i := 0; i < warmupQueries; i++ {
		o := src.next()
		if o.kind.write() {
			continue
		}
		o.noCache = true
		if r := c.do(o, time.Now()); !r.ok() {
			c.close()
			s.close()
			return nil, nil, fmt.Errorf("warm-up %s: %v", o.kind, r.err)
		}
	}
	return s, c, nil
}

// run performs one benchmark run of w.
func run(w *workload, o options) (*result, error) {
	dir := filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer(o.trace)

	t0 := time.Now()
	s, c, err := setUp(w, o.seed, filepath.Join(dir, "s0"), tr)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(t0).Seconds()}
	m, err := measure(w, s, c, tr, o)
	c.close()
	if cerr := s.close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// The oracle regenerates the served tuples, so none of it is resident
	// while the window runs.
	or := newOracle(w.data().Tuples, s.m)
	v := checkRecords(or, m.all())
	res := &result{workload: w.name, seed: o.seed, trace: o.trace, correct: v.failed == 0,
		attempted: len(m.all()), failed: v.failed, extra: map[string]metric{}}
	for _, smp := range v.samples {
		res.notes = append(res.notes, "failure: "+smp)
	}
	if w.writes && !o.trace {
		amp, err := spaceAmp(or, s, m.dirBytes, filepath.Join(dir, "fresh"))
		if err != nil {
			return nil, err
		}
		res.extra["space_amp"] = metric{amp, "ratio"}
		res.extra["checkpoints"] = metric{float64(m.checkpoints), "count"}
	}
	res.extra["error_rate"] = metric{float64(v.failed) / float64(res.attempted), "ratio"}

	if o.trace {
		res.gated = m.layers
		path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, m.traceNotes...)
		res.notes = append(res.notes, "spans written to "+path)
		return res, nil
	}

	for i := 1; i < setupReps; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		s, c, err := setUp(w, o.seed, filepath.Join(dir, "s"+strconv.Itoa(i)), newTracer(false))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		c.close()
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	res.gated = map[string]metric{
		"setup_s":     {median(setups), "s"},
		"rss_peak_mb": {m.rssMB, "MB"},
	}
	endToEnd(m, o.seconds, res)
	return res, nil
}

// spaceAmp is the data directory's size at the end of the window over
// the size of a fresh Dataset.Save of the live tuples then.
func spaceAmp(or *oracle, s *stack, dirBytes int64, freshDir string) (float64, error) {
	live := make([]vec.Sparse, 0, len(or.tuples))
	for _, t := range or.tuples {
		if t != nil {
			live = append(live, t)
		}
	}
	size, err := saveDataset(dataset.New("live", live, s.m), freshDir)
	if err != nil {
		return 0, err
	}
	return float64(dirBytes) / float64(size), nil
}

// endToEnd fills the end-to-end metrics from the window's records.
// ops_per_s counts only answers received inside the window, so an open
// loop that falls behind its arrivals shows there as well as in the
// latencies.
func endToEnd(m *measured, seconds float64, res *result) {
	end := m.start.Add(time.Duration(seconds * float64(time.Second)))
	var all, analyze, topk, writes []float64
	var completed, topkN, regionHits int
	for _, r := range m.window {
		if !r.ok() {
			continue
		}
		if !r.recv.After(end) {
			completed++
		}
		ms := float64(r.latency()) / float64(time.Millisecond)
		all = append(all, ms)
		switch {
		case r.op.kind == opAnalyze:
			analyze = append(analyze, ms)
		case r.op.kind == opTopK:
			topk = append(topk, ms)
			topkN++
			if r.cache == "hit-region" {
				regionHits++
			}
		default:
			writes = append(writes, ms)
		}
	}
	res.gated["ops_per_s"] = metric{float64(completed) / seconds, "1/s"}
	// The gated latency is /analyze's, the one class every workload
	// sends. The median of all ops is not gated: on sharded-analyze it
	// falls in the gap between the /topk and /analyze latencies (4.5 and
	// 28 ms at the commit that added this), where it jumps between them.
	res.gated["analyze_p50_ms"] = metric{quantile(analyze, 0.5), "ms"}
	res.extra["latency_p50_ms"] = metric{quantile(all, 0.5), "ms"}
	res.extra["latency_p90_ms"] = metric{quantile(all, 0.90), "ms"}
	res.extra["latency_p99_ms"] = metric{quantile(all, 0.99), "ms"}
	res.extra["analyze_p99_ms"] = metric{quantile(analyze, 0.99), "ms"}
	if len(topk) > 0 {
		res.extra["topk_p50_ms"] = metric{quantile(topk, 0.5), "ms"}
		res.extra["topk_p99_ms"] = metric{quantile(topk, 0.99), "ms"}
		res.extra["topk_region_hit_share"] = metric{float64(regionHits) / float64(topkN), "ratio"}
	}
	if len(writes) > 0 {
		res.extra["write_p50_ms"] = metric{quantile(writes, 0.5), "ms"}
		res.extra["write_p99_ms"] = metric{quantile(writes, 0.99), "ms"}
	}
	res.notes = append(res.notes, fmt.Sprintf("samples: %d ops, %d analyze, %d topk, %d write batches; p99 needs >= 1000 for 10 samples beyond it",
		len(all), len(analyze), len(topk), len(writes)))
}

// measured is what the window and the passes after it left behind.
type measured struct {
	start       time.Time // when the window began
	window      []*record // the measured window
	after       []*record // write pass and probes after the window
	rssMB       float64
	checkpoints int64 // write-mix: checkpoints the window triggered
	dirBytes    int64
	layers      map[string]metric
	traceNotes  []string
}

func (m *measured) all() []*record { return append(append([]*record(nil), m.window...), m.after...) }

// measure runs the window and, for a traced run, the passes that give
// the per-layer metrics; on writing workloads it ends with probe reads
// whose answers are checked against the final model.
func measure(w *workload, s *stack, c *httpClient, tr *tracer, o options) (*measured, error) {
	m := &measured{}
	var model *writeModel
	if w.writes {
		model = newWriteModel(s.n)
	}
	sources := w.sources(s, o.seed, streamLoad, model)
	var before scrape
	stopDrain := make(chan struct{})
	drainDone := make(chan struct{})
	if o.trace {
		var err error
		if before, err = takeScrape(c.c, s); err != nil {
			return nil, err
		}
		if !w.sharded {
			c.dr = newDrainer(s.serverURL)
		}
	}
	if c.dr != nil {
		go func() { defer close(drainDone); c.dr.run(stopDrain) }()
	} else {
		close(drainDone)
	}

	start := time.Now()
	m.start = start
	end := start.Add(time.Duration(o.seconds * float64(time.Second)))
	tr.startWindow(start)
	if w.open {
		m.window = driveOpen(c, sources[0], streams(o.seed, streamArrivals)(0), analyzeRate, start, end)
	} else {
		ckpt := make(chan error, 1)
		go func() { ckpt <- checkpointLoop(w, s, end) }()
		m.window = driveClosed(c, sources, end)
		if err := <-ckpt; err != nil {
			return nil, err
		}
	}
	tr.startWindow(time.Time{})
	close(stopDrain)
	<-drainDone
	m.rssMB = vmHWM()
	if w.writes {
		m.checkpoints = s.engines[0].DurabilityStats().Checkpoints
	}
	if s.dir != "" {
		var err error
		if m.dirBytes, err = dirSize(s.dir); err != nil {
			return nil, err
		}
	}

	if o.trace {
		after, err := takeScrape(c.c, s)
		if err != nil {
			return nil, err
		}
		if m.layers, m.traceNotes, err = perLayer(w, s, c, tr, o, before, after, m, model); err != nil {
			return nil, err
		}
	}
	if w.writes {
		probes := &sessionSource{draws: newDraws(s.sampler, o.seed, streamProbes, 0)}
		for i := 0; i < 3*(sessionSteps+1); i++ {
			op := probes.next()
			r := c.do(op, time.Now())
			probes.observe(op, r)
			m.after = append(m.after, r)
		}
	}
	return m, nil
}

// checkpointLoop forces a checkpoint every checkpointEvery until end on
// a writing workload; it returns at once on the others.
func checkpointLoop(w *workload, s *stack, end time.Time) error {
	if !w.writes {
		return nil
	}
	for t := time.Now().Add(checkpointEvery); t.Before(end); t = t.Add(checkpointEvery) {
		time.Sleep(time.Until(t))
		if err := s.engines[0].Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// vmHWM is the process's peak resident set in MB (VmHWM).
func vmHWM() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// quantile is the q-quantile of xs by the nearest-rank method (NaN when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
