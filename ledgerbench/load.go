package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// clientConns is the benchmark's connection budget: one client process,
// at most this many connections to the serving stack. The open loop uses
// all of them.
const clientConns = 2

// closedClients is the closed loops' client count. One client keeps
// about one core of the two busy, so the figures follow the program
// rather than the share of the host the process gets: on a 2-core host
// a single busy neighbour thread cut two clients' throughput on
// write-mix and sharded-analyze by 45-48 %, one client's by 12-29 %.
const closedClients = 1

// record is one request as the client saw it.
type record struct {
	op       op
	id       string
	traced   bool
	due      time.Time // when the request was due (open loop) or sent
	send     time.Time
	recv     time.Time
	late     time.Duration // open loop: how late an idle worker sent it
	idle     bool          // open loop: the worker waited for the due time
	status   int
	err      error
	reqBytes int
	cache    string // answer-cache disposition the server reported
	analyze  *server.AnalyzeResponse
	topk     []server.ResultEntry
	mutate   *server.MutateResponse
}

// latency is the user-visible latency: from the due time in an open
// loop, from the send in a closed one.
func (r *record) latency() time.Duration { return r.recv.Sub(r.due) }

// ok reports whether the request was answered with a 2xx status.
func (r *record) ok() bool { return r.err == nil && r.status/100 == 2 }

// httpClient is the benchmark's client: one transport capped at
// clientConns connections.
type httpClient struct {
	c    *http.Client
	base string
	seq  atomic.Int64
	tr   *tracer
	dr   *drainer // nil unless traced
}

func newHTTPClient(base string, tr *tracer) *httpClient {
	return &httpClient{
		c: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clientConns,
			MaxIdleConnsPerHost: clientConns,
			DisableCompression:  true,
		}},
		base: base,
		tr:   tr,
	}
}

func (c *httpClient) close() { c.c.CloseIdleConnections() }

func body(o op) ([]byte, error) {
	switch o.kind {
	case opAnalyze, opTopK:
		return json.Marshal(server.QueryRequest{Dims: o.q.Dims, Weights: o.q.Weights, K: o.k, Phi: o.phi, NoCache: o.noCache})
	case opUpdate:
		req := server.UpdateRequest{}
		for _, t := range o.upd {
			oj := server.UpdateOpJSON{}
			if t.id >= 0 {
				id := t.id
				oj.ID = &id
			}
			for _, e := range t.t {
				oj.Tuple = append(oj.Tuple, server.TupleEntryJSON{Dim: e.Dim, Val: e.Val})
			}
			req.Ops = append(req.Ops, oj)
		}
		return json.Marshal(req)
	default:
		return json.Marshal(server.DeleteRequest{IDs: o.del})
	}
}

// do sends one op and decodes its answer. The client span runs from
// the send to the last body byte; decoding is not part of it.
func (c *httpClient) do(o op, now time.Time) *record {
	r := &record{op: o}
	r.traced = c.tr.active(now)
	prefix := "u-"
	if r.traced {
		prefix = tracedPrefix
	}
	r.id = fmt.Sprintf("%s%d", prefix, c.seq.Add(1))
	b, err := body(o)
	if err != nil {
		r.err = err
		return r
	}
	r.reqBytes = len(b)
	req, err := http.NewRequest(http.MethodPost, c.base+"/"+o.kind.String(), bytes.NewReader(b))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, r.id)
	r.send = time.Now()
	resp, err := c.c.Do(req)
	if err != nil {
		r.err = err
		r.recv = time.Now()
		return r
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.recv = time.Now()
	r.status = resp.StatusCode
	if err != nil {
		r.err = err
		return r
	}
	if r.traced {
		c.tr.add(span{ID: r.id, Name: "client." + o.kind.String(), Start: c.tr.since(r.send), End: c.tr.since(r.recv)})
	}
	if c.dr != nil {
		c.dr.completed(r.traced)
	}
	if r.status/100 != 2 {
		r.err = fmt.Errorf("%s: HTTP %d: %s", o.kind, r.status, bytes.TrimSpace(raw))
		return r
	}
	switch o.kind {
	case opAnalyze:
		r.analyze = new(server.AnalyzeResponse)
		r.err = json.Unmarshal(raw, r.analyze)
		r.cache = r.analyze.Cache
	case opTopK:
		r.err = json.Unmarshal(raw, &r.topk)
		r.cache = resp.Header.Get("X-Cache")
	default:
		r.mutate = new(server.MutateResponse)
		r.err = json.Unmarshal(raw, r.mutate)
	}
	return r
}

// driveClosed runs one goroutine per source, each sending its next op
// as soon as the previous one is answered, until end.
func driveClosed(c *httpClient, sources []source, end time.Time) []*record {
	out := make([][]*record, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(i int, src source) {
			defer wg.Done()
			for now := time.Now(); now.Before(end); now = time.Now() {
				o := src.next()
				r := c.do(o, now)
				r.due = r.send
				src.observe(o, r)
				out[i] = append(out[i], r)
			}
		}(i, src)
	}
	wg.Wait()
	var all []*record
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// driveOpen sends src's ops at Poisson arrivals of the given rate from
// start to end, over clientConns workers. A request whose worker is
// still busy at its due time goes out as soon as one frees up; its
// latency still counts from the due time.
func driveOpen(c *httpClient, src source, rng *rand.Rand, rate float64, start, end time.Time) []*record {
	var due []time.Time
	var ops []op
	for t := start; ; {
		t = t.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if !t.Before(end) {
			break
		}
		due = append(due, t)
		ops = append(ops, src.next())
	}
	recs := make([]*record, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				wait := time.Until(due[i])
				if wait > 0 {
					time.Sleep(wait)
				}
				now := time.Now()
				r := c.do(ops[i], now)
				r.due = due[i]
				if wait > 0 {
					r.idle = true
					r.late = r.send.Sub(due[i])
				}
				recs[i] = r
			}
		}()
	}
	wg.Wait()
	return recs
}
