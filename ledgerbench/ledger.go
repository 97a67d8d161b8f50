package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/shard"
)

// counterQueries is the length of the traced run's counter pass: a fixed
// op stream from the seed, run one at a time after the window, so the
// paper's counters per query repeat exactly for a given seed and state.
const counterQueries = 48

// walBatches is the length of write-mix's WAL pass.
const walBatches = 24

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// union is the total length of the union of the spans' intervals.
func union(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total int64
	lo, hi := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > hi {
			total += hi - lo
			lo, hi = x.Start, x.End
		} else if x.End > hi {
			hi = x.End
		}
	}
	return time.Duration(total + hi - lo)
}

// delta is after − before of one exposition sample.
func delta(before, after scrape, name string) float64 { return after.prom[name] - before.prom[name] }

// histMeanMS is the mean of a seconds histogram over the scrape interval,
// in ms.
func histMeanMS(before, after scrape, name, labels string) float64 {
	return 1000 * ratio(delta(before, after, name+"_sum"+labels), delta(before, after, name+"_count"+labels))
}

// counters are the /stats fields a traced run reads, summed over the
// servers.
type counters struct {
	hits, misses, evictions                       float64 // answer cache
	bypass, accesses                              float64 // storage
	overlayBytes                                  float64
	batches, checked, evicted, syncs, checkpoints float64 // write path
}

func (sc scrape) counters() counters {
	var c counters
	for _, st := range sc.stats {
		c.bypass += float64(st.PoolBypass)
		c.accesses += float64(st.SeqPages + st.RandReads)
		if x := st.Cache; x != nil {
			c.hits += float64(x.Hits + x.RegionHits)
			c.misses += float64(x.Misses)
			c.evictions += float64(x.Evictions)
		}
		if x := st.Overlay; x != nil {
			c.overlayBytes += float64(x.Bytes)
		}
		if x := st.Mutations; x != nil {
			c.batches += float64(x.Batches)
			c.checked += float64(x.CacheChecked)
			c.evicted += float64(x.CacheEvicted)
		}
		if x := st.WAL; x != nil {
			c.syncs += float64(x.Syncs)
			c.checkpoints += float64(x.Checkpoints)
		}
	}
	return c
}

// perLayer computes the per-layer metrics of a traced run: span self
// times and the joined engine envelopes of the traced slices, the
// scrape deltas over the window, and the exact counters of the counter
// pass (plus, on write-mix, the WAL pass).
func perLayer(w *workload, s *stack, c *httpClient, tr *tracer, o options, before, after scrape, m *measured, model *writeModel) (map[string]metric, []string, error) {
	L := map[string]metric{}
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		L[name] = metric{v, unit}
	}
	var notes []string

	tr.mu.Lock()
	byID := make(map[string]span, len(tr.spans))
	children := map[string][]span{}
	for _, sp := range tr.spans {
		byID[sp.ID] = sp
		if sp.Parent != "" {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	tr.mu.Unlock()

	var net, srvSelf, validate, probe, queue, admit, ta []float64
	var rpc, round1, round2, mergeSelf []float64
	var tracedLat, untracedLat, late []float64
	joined, tracedN := 0, 0
	for _, r := range m.window {
		if !r.ok() {
			continue
		}
		if r.idle {
			late = append(late, ms(r.late))
		}
		// The overhead ratio skips the first slice pair: the window's
		// first requests meet a colder stack than the rest.
		settled := r.send.Sub(m.start) >= 2*traceSlice
		if !r.traced {
			if settled {
				untracedLat = append(untracedLat, ms(r.latency()))
			}
			continue
		}
		if settled {
			tracedLat = append(tracedLat, ms(r.latency()))
		}
		tracedN++
		cs, ok1 := byID[r.id]
		hs, ok2 := byID[r.id+"/h"]
		if !ok1 || !ok2 {
			continue
		}
		net = append(net, ms(cs.dur()-hs.dur()))
		if w.sharded {
			var all, r1, r2 []span
			for _, ch := range children[r.id] {
				if !strings.HasPrefix(ch.Name, "shard.rpc.") {
					continue
				}
				all = append(all, ch)
				rpc = append(rpc, ms(ch.dur()))
				if ch.Name == "shard.rpc.topk" {
					r1 = append(r1, ch)
				} else {
					r2 = append(r2, ch)
				}
			}
			round1 = append(round1, ms(union(r1)))
			if r.op.kind == opAnalyze {
				round2 = append(round2, ms(union(r2)))
			}
			mergeSelf = append(mergeSelf, ms(hs.dur()-union(all)))
			continue
		}
		if c.dr == nil {
			continue
		}
		c.dr.mu.Lock()
		e, ok := c.dr.byID[r.id]
		c.dr.mu.Unlock()
		if !ok {
			continue
		}
		joined++
		srvSelf = append(srvSelf, ms(hs.dur())-e.DurationMs)
		p := e.PhaseMs
		validate = append(validate, p.Validate)
		probe = append(probe, p.Cache)
		queue = append(queue, p.Queue)
		admit = append(admit, p.Admit)
		if e.Cache == "miss" || e.Cache == "bypass" {
			ta = append(ta, e.DurationMs-p.Validate-p.Cache-p.Queue-p.Admit-p.Region)
		}
	}
	set("net.self_ms", mean(net), "ms")
	set("server.self_ms", mean(srvSelf), "ms")
	set("engine.validate_ms", mean(validate), "ms")
	set("engine.cache_probe_ms", mean(probe), "ms")
	set("engine.queue_wait_ms", mean(queue), "ms")
	set("engine.admit_ms", mean(admit), "ms")
	set("topk.ta_ms", mean(ta), "ms")
	set("shard.rpc_ms", mean(rpc), "ms")
	set("shard.round1_ms", mean(round1), "ms")
	set("shard.round2_ms", mean(round2), "ms")
	set("shard.merge_self_ms", mean(mergeSelf), "ms")
	set("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	set("trace.overhead_ratio", ratio(quantile(tracedLat, 0.5), quantile(untracedLat, 0.5)), "ratio")
	if w.sharded {
		notes = append(notes, "server.self_ms and the engine envelope are 0: shard servers keep no slow-log entry for /shard endpoints")
	} else {
		notes = append(notes, fmt.Sprintf("traced requests %d, joined with a slow-log envelope %d", tracedN, joined))
	}

	// Scrape deltas over the whole window.
	set("core.phase2_ms", histMeanMS(before, after, "ir_engine_phase_seconds", `{phase="evaluate"}`), "ms")
	set("core.phase3_ms", histMeanMS(before, after, "ir_engine_phase_seconds", `{phase="pulls"}`), "ms")
	set("engine.apply_ms", histMeanMS(before, after, "ir_engine_apply_seconds", ""), "ms")
	set("wal.checkpoint_ms", histMeanMS(before, after, "ir_engine_checkpoint_seconds", ""), "ms")
	set("shard.retries", delta(before, after, "ir_shard_retries_total"), "count")
	b, a := before.counters(), after.counters()
	hits, misses := a.hits-b.hits, a.misses-b.misses
	batches, checked := a.batches-b.batches, a.checked-b.checked
	set("engine.cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	set("engine.cache.evictions", a.evictions-b.evictions, "count")
	set("storage.mmap_bypass_ratio", ratio(a.bypass-b.bypass, a.accesses-b.accesses), "ratio")
	set("lists.overlay_delta_mb", a.overlayBytes/(1<<20), "MB")
	set("engine.invalidation.checked_per_batch", ratio(checked, batches), "count")
	set("engine.invalidation.evicted_ratio", ratio(a.evicted-b.evicted, checked), "ratio")
	set("wal.syncs_per_batch", ratio(a.syncs-b.syncs, batches), "count")
	set("wal.checkpoints", a.checkpoints-b.checkpoints, "count")

	// The exact counters.
	ex, err := counterPass(w, s, c, o)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range ex {
		L[k] = v
	}
	logRatio := 0.0
	if w.writes {
		var note string
		if logRatio, note, err = walPass(s, c, o, m, model); err != nil {
			return nil, nil, err
		}
		if note != "" {
			notes = append(notes, note)
		}
	}
	set("wal.log_bytes_per_user_byte", logRatio, "ratio")
	return L, notes, nil
}

// counterPass runs counterQueries ops of the workload's read shape one
// at a time, through the engine's public calls (the coordinator over
// in-process shard backends when sharded), and returns the paper's
// counters per query. Sorted accesses come from the process metrics.
func counterPass(w *workload, s *stack, c *httpClient, o options) (map[string]metric, error) {
	d := newDraws(s.sampler, o.seed, streamCounters, 0)
	var src source = &uncachedSource{d}
	var coord *shard.Coordinator
	if w.sharded {
		src = &shardedSource{d}
		locals := make([]shard.Backend, len(s.engines))
		for i, e := range s.engines {
			locals[i] = shard.Local{E: e}
		}
		var err error
		if coord, err = newCoordinator(s.bases, locals, newTracer(false)); err != nil {
			return nil, err
		}
	}
	before, err := takeScrape(c.c, s)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var sum core.Metrics
	for i := 0; i < counterQueries; i++ {
		op := src.next()
		opts := engine.Options{NoCache: true, Options: core.Options{Phi: op.phi}}
		switch {
		case coord != nil && op.kind == opTopK:
			if _, err := coord.TopK(ctx, op.q, op.k); err != nil {
				return nil, err
			}
			continue
		case coord != nil:
			an, err := coord.Analyze(ctx, op.q, op.k, opts)
			if err != nil {
				return nil, err
			}
			addMetrics(&sum, an.Metrics)
		default:
			an, err := s.engines[0].Analyze(ctx, op.q, op.k, opts)
			if err != nil {
				return nil, err
			}
			addMetrics(&sum, an.Metrics)
		}
	}
	after, err := takeScrape(c.c, s)
	if err != nil {
		return nil, err
	}
	n := float64(counterQueries)
	return map[string]metric{
		"topk.sorted_accesses_per_query": {delta(before, after, "ir_engine_ta_sorted_accesses_sum") / n, "count"},
		"core.evaluated_per_query":       {float64(sum.Evaluated) / n, "count"},
		"core.phase3_pulled_per_query":   {float64(sum.Phase3Pulled) / n, "count"},
		"core.mem_bytes_per_query":       {float64(sum.MemBytes) / n, "bytes"},
		"storage.seq_pages_per_query":    {float64(sum.SeqPages) / n, "count"},
		"storage.rand_reads_per_query":   {float64(sum.RandReads) / n, "count"},
		"shard.rpcs_per_query":           {fanout(before, after) / n, "count"},
	}, nil
}

// fanout is the shard RPCs coordinators sent between two scrapes: the
// delta of ir_shard_fanout_total over every op.
func fanout(before, after scrape) float64 {
	total := 0.0
	for name := range after.prom {
		if strings.HasPrefix(name, "ir_shard_fanout_total{") {
			total += delta(before, after, name)
		}
	}
	return total
}

func addMetrics(sum *core.Metrics, m core.Metrics) {
	sum.Evaluated += m.Evaluated
	sum.Phase3Pulled += m.Phase3Pulled
	sum.MemBytes += m.MemBytes
	sum.SeqPages += m.SeqPages
	sum.RandReads += m.RandReads
}

// walPass forces a checkpoint (so the log starts empty), sends
// walBatches write batches one at a time, and returns the log bytes they
// appended per byte of request body. Its records join the run's checked
// records.
func walPass(s *stack, c *httpClient, o options, m *measured, model *writeModel) (float64, string, error) {
	if err := s.engines[0].Checkpoint(); err != nil {
		return 0, "", fmt.Errorf("checkpoint before the WAL pass: %w", err)
	}
	before := s.engines[0].DurabilityStats()
	src := &sessionSource{draws: newDraws(s.sampler, o.seed, streamCounters, 1), model: model}
	user := 0
	for i := 0; i < walBatches; i++ {
		op := src.writeOp()
		r := c.do(op, time.Now())
		src.observe(op, r)
		m.after = append(m.after, r)
		user += r.reqBytes
	}
	after := s.engines[0].DurabilityStats()
	if after.Checkpoints != before.Checkpoints {
		return 0, "wal.log_bytes_per_user_byte is 0: a checkpoint ran during the WAL pass", nil
	}
	return float64(after.LogBytes-before.LogBytes) / float64(user), "", nil
}
