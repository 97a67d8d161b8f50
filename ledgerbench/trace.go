package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Traced runs alternate untraced and traced slices of this length, so
// both halves see the same warm state and trace.overhead_ratio compares
// like with like.
const traceSlice = 500 * time.Millisecond

// tracedPrefix marks the request ids of traced requests; every span
// recorder keys off it, so untraced requests pay only a prefix test.
const tracedPrefix = "t-"

// span is one timed interval of a request at a layer boundary. Times
// are nanoseconds since the tracer's origin.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory. A nil-enabled tracer (untraced run)
// records nothing.
type tracer struct {
	enabled bool
	origin  time.Time
	window  atomic.Int64 // UnixNano start of the sliced window; 0 = not started
	seq     atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newTracer(enabled bool) *tracer { return &tracer{enabled: enabled, origin: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// slowQuery is the slow-log threshold the servers get: irserver's
// default, or 1ns in a traced run so every query's envelope lands in
// GET /debug/slowlog.
func (t *tracer) slowQuery() time.Duration {
	if t.enabled {
		return time.Nanosecond
	}
	return server.DefaultSlowQuery
}

// startWindow begins the sliced window at now.
func (t *tracer) startWindow(now time.Time) { t.window.Store(now.UnixNano()) }

// active reports whether a request sent at now is traced: odd slices of
// the window in a traced run.
func (t *tracer) active(now time.Time) bool {
	w := t.window.Load()
	if !t.enabled || w == 0 {
		return false
	}
	return (now.UnixNano()-w)/int64(traceSlice)%2 == 1
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func traced(id string) bool { return strings.HasPrefix(id, tracedPrefix) }

// middleware records a "<layer>.<endpoint>" span around every traced
// request. Its id is the inbound request id plus "/h"; its parent is
// the inbound request id (the client span, or a shard RPC span).
func (t *tracer) middleware(layer string, next http.Handler) http.Handler {
	if !t.enabled {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.RequestIDHeader)
		if !traced(id) {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(span{ID: id + "/h", Parent: id, Name: layer + "." + strings.TrimPrefix(r.URL.Path, "/"),
			Start: t.since(start), End: t.since(time.Now())})
	})
}

// rpcIDKey carries a shard RPC span id from the backend decorator to
// idTransport.
type rpcIDKey struct{}

// idTransport sends the RPC span id as the shard request's X-Request-ID,
// so the shard server's handler span links to the RPC span.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(rpcIDKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(obs.RequestIDHeader, id)
	}
	return t.base.RoundTrip(r)
}

// tracedBackend is the timing decorator around each shard.Backend the
// coordinator gets: a "shard.rpc.<op>" span per traced read call,
// parented to the coordinator request. Apply passes through untimed.
type tracedBackend struct {
	shard.Backend
	tr *tracer
}

func (d tracedBackend) begin(ctx context.Context) (context.Context, string, time.Time) {
	parent := obs.RequestIDFrom(ctx)
	if !d.tr.enabled || !traced(parent) {
		return ctx, "", time.Time{}
	}
	id := fmt.Sprintf("%s/rpc%d", parent, d.tr.seq.Add(1))
	return context.WithValue(ctx, rpcIDKey{}, id), id, time.Now()
}

func (d tracedBackend) end(ctx context.Context, id, name string, start time.Time) {
	if id == "" {
		return
	}
	d.tr.add(span{ID: id, Parent: obs.RequestIDFrom(ctx), Name: name, Start: d.tr.since(start), End: d.tr.since(time.Now())})
}

func (d tracedBackend) TopK(ctx context.Context, q vec.Query, k int) ([]topk.Scored, error) {
	cctx, id, start := d.begin(ctx)
	res, err := d.Backend.TopK(cctx, q, k)
	d.end(ctx, id, "shard.rpc.topk", start)
	return res, err
}

func (d tracedBackend) AnalyzeImposed(ctx context.Context, q vec.Query, k, base int, imposed []topk.Scored, opts engine.Options) (*core.Output, []topk.Scored, error) {
	cctx, id, start := d.begin(ctx)
	out, lines, err := d.Backend.AnalyzeImposed(cctx, q, k, base, imposed, opts)
	d.end(ctx, id, "shard.rpc.analyze", start)
	return out, lines, err
}

// drainer copies the servers' slow-query rings into memory before they
// wrap: the client kicks it every drainEvery traced completions, well
// inside the 128-entry ring, and when a traced slice ends, before the
// untraced slice's entries push the last traced ones out.
type drainer struct {
	urls   []string
	c      *http.Client
	kick   chan struct{}
	mu     sync.Mutex
	byID   map[string]obs.SlowEntry
	count  atomic.Int64
	inside atomic.Bool // the last completion was traced
}

// drainEvery leaves half the ring as slack for requests that finish
// between a kick and its drain.
const drainEvery = 64

func newDrainer(urls []string) *drainer {
	return &drainer{
		urls: urls,
		c:    &http.Client{Timeout: upstreamTimeout},
		kick: make(chan struct{}, 1),
		byID: map[string]obs.SlowEntry{},
	}
}

// completed notes one completion and kicks a drain when due.
func (d *drainer) completed(traced bool) {
	sliceEnded := d.inside.Swap(traced) && !traced
	if sliceEnded || traced && d.count.Add(1)%drainEvery == 0 {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
}

// run drains on every kick until stop is closed, then drains once more.
func (d *drainer) run(stop <-chan struct{}) {
	for {
		select {
		case <-d.kick:
			d.drain()
		case <-stop:
			d.drain()
			return
		}
	}
}

func (d *drainer) drain() {
	for _, u := range d.urls {
		var resp server.SlowlogResponse
		if err := getJSON(d.c, u+"/debug/slowlog", &resp); err != nil {
			fmt.Fprintln(os.Stderr, "ledgerbench: drain slowlog:", err)
			continue
		}
		d.mu.Lock()
		for _, e := range resp.Entries {
			if traced(e.RequestID) {
				d.byID[e.RequestID] = e
			}
		}
		d.mu.Unlock()
	}
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// promText parses a Prometheus text exposition into "name{labels}" →
// value.
func promText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrape is a before/after snapshot of the process metrics and of every
// server's /stats.
type scrape struct {
	prom  map[string]float64
	stats []server.StatsResponse
}

func takeScrape(c *http.Client, s *stack) (scrape, error) {
	var sc scrape
	resp, err := c.Get(s.serverURL[0] + "/metrics")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	if sc.prom, err = promText(resp.Body); err != nil {
		return sc, err
	}
	for _, u := range s.serverURL {
		var st server.StatsResponse
		if err := getJSON(c, u+"/stats", &st); err != nil {
			return sc, err
		}
		sc.stats = append(sc.stats, st)
	}
	return sc, nil
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
