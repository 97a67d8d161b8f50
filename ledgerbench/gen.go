package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// Dataset sizes. WSJ×s is the experiment harness's WSJ at scale s: s×8000
// documents over an s×12000-term vocabulary, 60 distinct terms each. ST
// is the correlated synthetic set, split evenly over the shards.
const (
	stShards      = 4
	stPerShard    = 5000
	sessionSteps  = 8    // /topk refinements per /analyze anchor
	writeShare    = 0.2  // write-mix: share of ops that are write batches
	maxBatch      = 8    // write-mix: ops per write batch, at most
	minStep       = 1e-3 // refinement step bounds (absolute weight change)
	maxStep       = 1e-1
	minWeight     = 0.01 // refinement keeps weights inside (0, 1]
	warmupQueries = 16
)

// dataSeed seeds the dataset generators. The datasets are fixed: --seed
// drives the query, arrival and write streams, so runs on different
// seeds measure the same data under different traffic.
const dataSeed = 1

func wsj(scale int) *dataset.Dataset {
	return dataset.GenerateWSJ(dataset.WSJConfig{
		Docs:      8000 * scale,
		Vocab:     12000 * scale,
		MeanTerms: 60,
		Seed:      dataSeed,
	})
}

func stData() *dataset.Dataset {
	return dataset.GenerateST(dataset.STConfig{N: stShards * stPerShard, Seed: dataSeed})
}

// op is one client request.
type op struct {
	kind    opKind
	q       vec.Query
	k, phi  int
	noCache bool // analyze: bypass the answer cache (warm-up only)
	// write-mix batches: /update ops (id < 0 inserts) or /delete ids
	upd []tupleOp
	del []int
}

type opKind int

const (
	opAnalyze opKind = iota
	opTopK
	opUpdate
	opDelete
)

var opNames = [...]string{"analyze", "topk", "update", "delete"}

func (k opKind) String() string { return opNames[k] }

// write reports whether the op is a write batch.
func (k opKind) write() bool { return k == opUpdate || k == opDelete }

// tupleOp is one /update element: replace id, or insert when id < 0.
type tupleOp struct {
	id int
	t  vec.Sparse
}

// sampler draws queries of the paper's shape: qlen 2–8, k ∈ {10,20,50},
// dimensions whose lists hold at least 3k+20 tuples (so the top-k is
// well populated), weights uniform in [0.2, 1]. The (qlen, k) pairs come
// in a fixed cycle, so every run sends the same mix of shapes and the
// seed varies only the dimensions and weights.
type sampler struct {
	eligible map[int][]int // by k
	// vals holds up to valueSamples values per dimension, for write
	// payloads that look like the served tuples.
	vals [][]float64
}

const valueSamples = 32

func newSampler(ds *dataset.Dataset) *sampler {
	s := &sampler{eligible: map[int][]int{}, vals: make([][]float64, ds.M)}
	for _, t := range ds.Tuples {
		for _, e := range t {
			if len(s.vals[e.Dim]) < valueSamples {
				s.vals[e.Dim] = append(s.vals[e.Dim], e.Val)
			}
		}
	}
	for _, k := range []int{10, 20, 50} {
		for minDF := 3*k + 20; minDF > 0; minDF /= 2 {
			var dims []int
			for d := 0; d < ds.M; d++ {
				if ds.DF(d) >= minDF {
					dims = append(dims, d)
				}
			}
			if len(dims) >= 8 {
				s.eligible[k] = dims
				break
			}
		}
	}
	return s
}

// shapes is the length of the (qlen, k) cycle.
const shapes = 21

// query draws a query of shape i of the cycle: its dimensions from
// dimRNG, its weights from rng.
func (s *sampler) query(rng, dimRNG *rand.Rand, i int) (vec.Query, int) {
	qlen := 2 + i%7
	k := []int{10, 20, 50}[(i/7)%3]
	el := s.eligible[k]
	dims := make([]int, qlen)
	weights := make([]float64, qlen)
	for i, p := range dimRNG.Perm(len(el))[:qlen] {
		dims[i] = el[p]
		weights[i] = 0.2 + 0.8*rng.Float64()
	}
	q, err := vec.NewQuery(dims, weights)
	if err != nil {
		panic(err) // distinct dims, weights in (0,1]: cannot fail
	}
	return q, k
}

// draws are a source's random streams. Query dimensions come from a
// stream fixed by dataSeed, the same on every --seed, because what a
// query costs depends mostly on its dimensions' list lengths; weights,
// steps, arrivals and writes come from the seed.
type draws struct {
	rng  *rand.Rand
	dims *rand.Rand
	s    *sampler
	n    int // queries drawn: the position in the shape cycle
}

func newDraws(s *sampler, seed int64, purpose int64, client int) draws {
	return draws{
		rng:  streams(seed, purpose)(client),
		dims: streams(dataSeed, -purpose)(client),
		s:    s,
		n:    client * shapes / closedClients,
	}
}

func (d *draws) query() (vec.Query, int) {
	q, k := d.s.query(d.rng, d.dims, d.n)
	d.n++
	return q, k
}

// source generates one client's op stream. observe feeds back each
// answered op so sessions can target their own results.
type source interface {
	next() op
	observe(o op, r *record)
}

// uncachedSource: distinct /analyze calls, φ alternating 0 and 2.
type uncachedSource struct{ draws }

func (u *uncachedSource) next() op {
	phi := 2 * (u.n / shapes % 2)
	q, k := u.query()
	return op{kind: opAnalyze, q: q, k: k, phi: phi}
}

func (u *uncachedSource) observe(op, *record) {}

// shardedSource: distinct /analyze and /topk calls, alternating.
type shardedSource struct{ draws }

func (u *shardedSource) next() op {
	q, k := u.query()
	if u.n%2 == 0 {
		return op{kind: opTopK, q: q, k: k}
	}
	return op{kind: opAnalyze, q: q, k: k}
}

func (u *shardedSource) observe(op, *record) {}

// sessionSource: refinement sessions — an /analyze anchor, then
// sessionSteps /topk calls, each moving one weight of the anchor by a
// log-uniform step (one slider moved away from the certified weights).
// With a model, a writeShare of ops are write batches instead.
type sessionSource struct {
	draws
	q     vec.Query // the session's anchor
	k     int
	left  int   // refinement steps left in the session
	ids   []int // the anchor's result ids, write targets
	model *writeModel
}

func (u *sessionSource) next() op {
	if u.model != nil && u.rng.Float64() < writeShare {
		return u.writeOp()
	}
	if u.left == 0 {
		u.q, u.k = u.query()
		u.left = sessionSteps
		u.ids = nil
		return op{kind: opAnalyze, q: u.q, k: u.k}
	}
	u.left--
	q := u.q.Clone()
	j := u.rng.Intn(q.Len())
	step := minStep * math.Exp(u.rng.Float64()*math.Log(maxStep/minStep))
	if u.rng.Intn(2) == 0 {
		step = -step
	}
	q.Weights[j] = math.Min(1, math.Max(minWeight, q.Weights[j]+step))
	return op{kind: opTopK, q: q, k: u.k}
}

// payload draws an inserted or replacing tuple over some of the
// session's dimensions plus up to three others. Each value is one its
// dimension already holds, scaled down by up to 15 % so that no two
// tuples tie: writes keep the data near the dataset's distribution
// instead of drifting it, and in the general position the brute-force
// region oracle (core.ExactRegions) assumes.
func (u *sessionSource) payload() vec.Sparse {
	vals := map[int]float64{}
	draw := func(d int) {
		if vs := u.s.vals[d]; len(vs) > 0 {
			vals[d] = vs[u.rng.Intn(len(vs))] * (0.85 + 0.15*u.rng.Float64())
		}
	}
	for _, p := range u.rng.Perm(u.q.Len())[:1+u.rng.Intn(u.q.Len())] {
		draw(u.q.Dims[p])
	}
	others := u.s.eligible[10]
	for i := u.rng.Intn(4); i > 0; i-- {
		draw(others[u.rng.Intn(len(others))])
	}
	entries := make([]vec.Entry, 0, len(vals))
	for d, v := range vals {
		entries = append(entries, vec.Entry{Dim: d, Val: v})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Dim < entries[j].Dim })
	return vec.Sparse(entries)
}

func (u *sessionSource) writeOp() op {
	n := 1 + u.rng.Intn(maxBatch)
	if u.q.Len() == 0 {
		u.q, u.k = u.query()
	}
	if u.rng.Intn(3) == 0 {
		if ids := u.model.claim(u.rng, n, u.ids); len(ids) > 0 {
			return op{kind: opDelete, del: ids}
		}
	}
	o := op{kind: opUpdate}
	targets := u.model.claim(u.rng, n, u.ids)
	for i := 0; i < n; i++ {
		id := -1
		if i < len(targets) && u.rng.Intn(2) == 0 {
			id = targets[i]
		}
		o.upd = append(o.upd, tupleOp{id: id, t: u.payload()})
	}
	// Claimed ids the batch does not replace go back at once.
	var unused []int
	for _, id := range targets {
		used := false
		for _, t := range o.upd {
			used = used || t.id == id
		}
		if !used {
			unused = append(unused, id)
		}
	}
	u.model.release(unused, nil, nil)
	return o
}

func (u *sessionSource) observe(o op, r *record) {
	switch o.kind {
	case opAnalyze:
		if r.analyze != nil {
			u.ids = u.ids[:0]
			for _, e := range r.analyze.Result {
				u.ids = append(u.ids, e.ID)
			}
		}
	case opUpdate:
		var replaced, inserted []int
		for i, t := range o.upd {
			if t.id >= 0 {
				replaced = append(replaced, t.id)
			} else if r.mutate != nil && i < len(r.mutate.Results) && r.mutate.Results[i].Error == "" {
				inserted = append(inserted, r.mutate.Results[i].ID)
			}
		}
		u.model.release(replaced, inserted, nil)
	case opDelete:
		u.model.release(nil, nil, o.del)
	}
}

// writeModel is the write-mix clients' shared view of the live ids.
// Write targets are claimed before a batch is sent and released when
// its answer arrives, so two in-flight batches never touch the same id
// and every replace or delete names a live tuple.
type writeModel struct {
	mu      sync.Mutex
	live    []int
	pos     map[int]int
	claimed map[int]bool
}

func newWriteModel(n int) *writeModel {
	m := &writeModel{pos: make(map[int]int, n), claimed: map[int]bool{}}
	for id := 0; id < n; id++ {
		m.add(id)
	}
	return m
}

func (m *writeModel) add(id int) {
	m.pos[id] = len(m.live)
	m.live = append(m.live, id)
}

func (m *writeModel) remove(id int) {
	i, ok := m.pos[id]
	if !ok {
		return
	}
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.pos[last] = i
	m.live = m.live[:len(m.live)-1]
	delete(m.pos, id)
}

// claim picks up to n distinct live, unclaimed ids: half of the time
// from prefer (the session's result), otherwise uniformly.
func (m *writeModel) claim(rng *rand.Rand, n int, prefer []int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	take := func(id int) {
		if _, ok := m.pos[id]; ok && !m.claimed[id] {
			m.claimed[id] = true
			out = append(out, id)
		}
	}
	for tries := 0; len(out) < n && tries < 4*n; tries++ {
		if len(prefer) > 0 && rng.Intn(2) == 0 {
			take(prefer[rng.Intn(len(prefer))])
		} else if len(m.live) > 0 {
			take(m.live[rng.Intn(len(m.live))])
		}
	}
	return out
}

// release ends claims: kept ids stay live, deleted ones leave, and
// inserted ids join the live set.
func (m *writeModel) release(kept, inserted, deleted []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range kept {
		delete(m.claimed, id)
	}
	for _, id := range deleted {
		delete(m.claimed, id)
		m.remove(id)
	}
	for _, id := range inserted {
		m.add(id)
	}
}
