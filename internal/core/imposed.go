package core

import (
	"context"

	"repro/internal/geom"
	"repro/internal/lists"
	"repro/internal/storage"
	"repro/internal/topk"
	"repro/internal/vec"
)

// This file is the shard-side and coordinator-side machinery of the
// scatter-gather deployment (docs/sharding.md). A dataset partitioned
// by id range answers a global analysis in two rounds: the coordinator
// first merges the per-shard top-k lists into the global result R, then
// asks every shard for the region constraints ITS tuples impose on that
// result. The shard computation is the unmodified pipeline of this
// package run over a translated view: Result() reports the imposed
// global lines, Candidates()/Resume() report the shard's own tuples
// under their global ids, and the k-th result line may belong to
// another shard entirely — Lemma 1 and the §6 envelope only consume the
// line coefficients (score, coordinate), never the backing tuple, so
// the phases work unchanged.
//
// Correctness of the decomposition: the global immutable region is the
// set of deviations under which (a) no two result lines reorder and
// (b) no non-result line climbs above the k-th envelope. Constraint (a)
// is a function of R alone and is replayed identically by every shard
// (or by the coordinator); constraint (b) decomposes over the partition
// because every non-result tuple lives in exactly one shard and its
// line's crossings are pure functions of (score, coordinate) pairs that
// shard computes bit-identically to a single node. See
// docs/sharding.md for the full argument, and TestShardedBitIdentical
// for the machine-checked version.

// WithImposed wraps a shard-local Runner for an imposed-result region
// computation. base offsets the shard's local tuple ids into the global
// id space (global id = base + local id). imposed is the merged global
// result R, carrying global ids; result members owned by this shard are
// recognized by their id range and excluded from the candidate stream
// (a shard's local top-k always contains its global-result members, so
// they would otherwise be double-reported as candidates).
//
// On the envelope paths the runner records the shard lines the
// coordinator's replay may need (reportLines); ContributedLines reports
// exactly those, and nothing after a classic φ = 0 computation.
func WithImposed(r Runner, base int, imposed []topk.Scored) Runner {
	return &imposedRunner{inner: r, base: base, imposed: imposed}
}

// imposedRunner translates a shard-local Runner into the global id
// space and substitutes the imposed result for the local one.
type imposedRunner struct {
	inner   Runner
	base    int
	imposed []topk.Scored

	// cands is the translated candidate view: the shard's local result
	// and candidate lists minus imposed members, rebuilt when the inner
	// lists grow (Resume only ever appends).
	cands    []topk.Scored
	innerLen int

	// kept holds the global ids of the shard lines reportLines kept, on
	// either side of any dimension.
	kept map[int]struct{}
}

func (v *imposedRunner) keepLine(id int) {
	if v.kept == nil {
		v.kept = make(map[int]struct{})
	}
	v.kept[id] = struct{}{}
}

func (v *imposedRunner) Query() vec.Query { return v.inner.Query() }
func (v *imposedRunner) K() int           { return v.inner.K() }

// Result returns the imposed global result, not the shard-local one.
func (v *imposedRunner) Result() []topk.Scored { return v.imposed }

// ownsImposed reports whether the given global id is an imposed result
// member (k is small, so a linear probe beats a map here).
func (v *imposedRunner) ownsImposed(gid int) bool {
	for i := range v.imposed {
		if v.imposed[i].ID == gid {
			return true
		}
	}
	return false
}

// Candidates returns every shard tuple that may constrain the imposed
// result — the local top-k members that did not make the global result,
// plus the local candidate list — under global ids. The concatenation
// preserves the decreasing-score contract: local result scores dominate
// local candidate scores.
func (v *imposedRunner) Candidates() []topk.Scored {
	res, cs := v.inner.Result(), v.inner.Candidates()
	if n := len(res) + len(cs); n != v.innerLen || (v.cands == nil && n > 0) {
		v.innerLen = n
		v.cands = v.cands[:0]
		for _, part := range [2][]topk.Scored{res, cs} {
			for _, sc := range part {
				sc.ID += v.base
				if v.ownsImposed(sc.ID) {
					continue
				}
				v.cands = append(v.cands, sc)
			}
		}
	}
	return v.cands
}

// Resume pulls the shard scan and translates the id. Imposed members
// can never surface here — they are in the local top-k, which the scan
// saw before terminating — but the filter guards the invariant anyway.
func (v *imposedRunner) Resume() (topk.Scored, bool) {
	for {
		sc, ok := v.inner.Resume()
		if !ok {
			return topk.Scored{}, false
		}
		sc.ID += v.base
		if v.ownsImposed(sc.ID) {
			continue
		}
		return sc, true
	}
}

func (v *imposedRunner) Thresholds() []float64        { return v.inner.Thresholds() }
func (v *imposedRunner) ThresholdsInto(dst []float64) { v.inner.ThresholdsInto(dst) }

// WasSortedAccessed answers for shard-owned tuples only. A foreign id —
// typically the imposed d_k living on another shard — reports false,
// which makes Phase 3 keep the upper-bound resume active: conservative
// in work, exact in the produced region.
func (v *imposedRunner) WasSortedAccessed(i, id int, val float64) bool {
	local := id - v.base
	if local < 0 || local >= v.inner.Index().NumTuples() {
		return false
	}
	return v.inner.WasSortedAccessed(i, local, val)
}

func (v *imposedRunner) Index() lists.Index {
	return &offsetIndex{Index: v.inner.Index(), base: v.base}
}

func (v *imposedRunner) RunContext(ctx context.Context) error { return v.inner.RunContext(ctx) }

// ContributedLines returns, under global ids and in candidate order,
// the shard lines reportLines kept — the input of the coordinator's
// ReplayRegions merge. After a classic φ = 0 computation it is empty:
// that merge reads only the per-shard bounds.
func (v *imposedRunner) ContributedLines() []topk.Scored {
	if len(v.kept) == 0 {
		return nil
	}
	out := make([]topk.Scored, 0, len(v.kept))
	for _, sc := range v.Candidates() {
		if _, ok := v.kept[sc.ID]; ok {
			out = append(out, sc)
		}
	}
	return out
}

// reportLines hands the shard runner every shard line on one side of
// dimension jx that the coordinator's replay over the union of all
// shards' lines could accept: the lines this side's boundary accepted,
// and every candidate that climbs above the boundary's k-th envelope
// before unionHorizon. The union's k-th envelope lies at or above this
// one at every x, since it ranks a superset of the lines, and its
// horizon comes no later than unionHorizon; so a line this test drops
// stays below the union's envelope up to the union's horizon, where
// the replay rejects it as well. The candidates' projections come from
// the scan, so the test fetches nothing.
func (d *dimComputer) reportLines(jx int, b *boundary, sgn float64) {
	for _, ln := range b.lines[b.k:] {
		d.shard.keepLine(ln.ID)
	}
	h := b.unionHorizon()
	env := geom.KthEnvelope(b.lines, b.k, 0, h)
	for _, sc := range d.view.Candidates() {
		if x, ok := env.FirstCrossingAbove(geom.Line{A: sc.Score, B: sgn * sc.Proj[jx]}); ok && x < h {
			d.shard.keepLine(sc.ID)
		}
	}
}

// unionHorizon bounds from above the horizon of a boundary seeded with
// the same result lines over any set of candidate lines — in
// particular over the union of every shard's lines. The shard's own
// horizon is no such bound: a crossing between two of its lines that
// counts as an event here can sink below rank k once another shard's
// line enters, so the union can reach its (φ+1)-th event later.
//
// Crossings among the result lines are the bound's currency. Take any
// line set holding the k result lines, and let P count its events
// where a non-result line enters and a result line leaves, Q the
// events where a result line enters and another leaves. A crossing
// between two result lines fails to be an event only while both are
// out of the top k; at most P result lines are out at once and each
// pair crosses once, so at most C(P,2) + Q(P−1) such crossings are
// lost. With N_R(x) the crossings among the result lines up to x, the
// set has at least P + N_R(x) − C(P,2) − Q(P−1) events up to x; while
// it has at most φ, P + Q ≤ φ and the count is at least
// N_R(x) − crowdSlack(φ). So its horizon lies at or before the
// (φ+1+crowdSlack(φ))-th crossing among the result lines.
// Composition-only boundaries count only entries, which crossings
// among result lines do not bound, so their bound is the domain end.
func (b *boundary) unionHorizon() float64 {
	if b.compOnly {
		return b.domainEnd
	}
	need := b.phi + 1 + crowdSlack(b.phi)
	cs := geom.FirstCrossings(b.lines[:b.k], 0, b.domainEnd, need)
	if len(cs) < need {
		return b.domainEnd
	}
	return cs[need-1].X
}

// crowdSlack is the most result-line crossings other lines can keep
// from counting before φ+1 events: the maximum over P + Q ≤ φ of
// C(P,2) + Q(P−1) − P, and at least 0 (see unionHorizon). It is 0 up
// to φ = 3.
func crowdSlack(phi int) int {
	g := 0
	for p := 1; p <= phi; p++ {
		if v := p*(p-1)/2 + (phi-p)*(p-1) - p; v > g {
			g = v
		}
	}
	return g
}

// offsetIndex presents a shard-local index under global tuple ids:
// random access subtracts the shard base, the cardinality covers the
// global id range [0, base+n) so id-indexed structures (the evaluation
// memo) size correctly, and sorted-access cursors translate posting ids
// on the way out.
type offsetIndex struct {
	lists.Index
	base int
}

func (o *offsetIndex) NumTuples() int          { return o.base + o.Index.NumTuples() }
func (o *offsetIndex) Tuple(id int) vec.Sparse { return o.Index.Tuple(id - o.base) }

func (o *offsetIndex) Cursor(dim int) lists.Cursor {
	return &offsetCursor{Cursor: o.Index.Cursor(dim), base: o.base}
}

func (o *offsetIndex) WithStats(st *storage.IOStats) lists.Index {
	return &offsetIndex{Index: o.Index.WithStats(st), base: o.base}
}

// offsetCursor translates posting ids of a shard-local cursor.
type offsetCursor struct {
	lists.Cursor
	base int
}

func (c *offsetCursor) Peek() (storage.Posting, bool) {
	p, ok := c.Cursor.Peek()
	p.ID += c.base
	return p, ok
}

func (c *offsetCursor) Next() (storage.Posting, bool) {
	p, ok := c.Cursor.Next()
	p.ID += c.base
	return p, ok
}

func (c *offsetCursor) Clone() lists.Cursor {
	return &offsetCursor{Cursor: c.Cursor.Clone(), base: c.base}
}

// ReplayRegions is the coordinator-side φ > 0 (and envelope-path) merge:
// it reruns the §6 boundary machinery per dimension over the imposed
// result lines, offering every line the shards reported. A line that
// stays below the union's k-th envelope up to the union's horizon never
// enters the arrangement's events, so offering any superset of the
// lines that climb above it there (what ContributedLines reports, per
// shard) yields exactly the perturbation sequence of a replay over
// every candidate of the union.
// k is the requested result size; len(res) < k degenerates to the full
// weight domain exactly as ComputeView's |R| < k branch does.
func ReplayRegions(q vec.Query, k int, res, extra []topk.Scored, opts Options) []Regions {
	out := make([]Regions, q.Len())
	for jx := range q.Dims {
		if len(res) < k {
			c := &computer{q: q, k: k}
			out[jx] = c.fullDomainRegions(jx)
			continue
		}
		qj := q.Weights[jx]
		right := newBoundary(res, jx, opts.Phi, 1-qj, false, opts.CompositionOnly)
		left := newBoundary(res, jx, opts.Phi, qj, true, opts.CompositionOnly)
		for _, sc := range extra {
			right.consider(sc.ID, sc.Score, sc.Proj[jx])
			left.consider(sc.ID, sc.Score, -sc.Proj[jx])
		}
		out[jx] = assembleRegions(q.Dims[jx], jx, qj, right, left)
	}
	return out
}
