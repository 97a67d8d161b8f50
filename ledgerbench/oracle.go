package main

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/vec"
)

// tol is the tolerance of the core property tests: region bounds and
// scores must agree with the brute-force answer within it.
const tol = 1e-9

// oracle is the brute-force model of the served tuples: every live
// tuple by id plus a per-dimension posting list, so a query scores
// exactly the tuples that are non-zero on its dimensions. Scores are
// accumulated in ascending query-dimension order, the order of
// vec.Query.Score, so they are the values topk.TopKNaive would give.
type oracle struct {
	tuples []vec.Sparse // by id; nil when the id is not live
	post   [][]posting  // by dimension
	acc    []float64    // per-id score scratch
	pos    []int        // per-id scratch: 1 + index among the touched, 0 if untouched
}

// reader returns an oracle sharing o's tuples with scratch of its own,
// so several goroutines can check reads while nothing writes.
func (o *oracle) reader() *oracle {
	return &oracle{tuples: o.tuples, post: o.post, acc: make([]float64, len(o.acc)), pos: make([]int, len(o.pos))}
}

type posting struct {
	id  int
	val float64
}

// scored is one ranked oracle answer.
type scored struct {
	id    int
	score float64
}

func newOracle(tuples []vec.Sparse, m int) *oracle {
	o := &oracle{post: make([][]posting, m)}
	for id, t := range tuples {
		o.set(id, t)
	}
	return o
}

// set makes t the tuple of id (nil deletes it) and returns the tuple
// it replaced, so a caller can undo the change.
func (o *oracle) set(id int, t vec.Sparse) vec.Sparse {
	for id >= len(o.tuples) {
		o.tuples = append(o.tuples, nil)
		o.acc = append(o.acc, 0)
		o.pos = append(o.pos, 0)
	}
	prev := o.tuples[id]
	for _, e := range prev {
		pl := o.post[e.Dim]
		for i := range pl {
			if pl[i].id == id {
				pl[i] = pl[len(pl)-1]
				o.post[e.Dim] = pl[:len(pl)-1]
				break
			}
		}
	}
	o.tuples[id] = t
	for _, e := range t {
		o.post[e.Dim] = append(o.post[e.Dim], posting{id, e.Val})
	}
	return prev
}

// live reports whether id holds a tuple.
func (o *oracle) live(id int) bool { return id >= 0 && id < len(o.tuples) && o.tuples[id] != nil }

// scoreAll scores every tuple non-zero on a query dimension and returns
// their ids; scores stay in o.acc until reset is called.
func (o *oracle) scoreAll(q vec.Query) []int {
	var touched []int
	for j, d := range q.Dims {
		if d < 0 || d >= len(o.post) {
			continue
		}
		w := q.Weights[j]
		for _, p := range o.post[d] {
			if o.pos[p.id] == 0 {
				touched = append(touched, p.id)
				o.pos[p.id] = len(touched)
			}
			o.acc[p.id] += w * p.val
		}
	}
	return touched
}

func (o *oracle) reset(touched []int) {
	for _, id := range touched {
		o.acc[id] = 0
		o.pos[id] = 0
	}
}

// less is the engine's ranking order: score descending, id ascending.
func less(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// worstFirst is a heap whose root is the lowest-ranked kept answer.
type worstFirst []scored

func (h worstFirst) Len() int           { return len(h) }
func (h worstFirst) Less(i, j int) bool { return less(h[j], h[i]) }
func (h worstFirst) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *worstFirst) Push(x any)        { *h = append(*h, x.(scored)) }
func (h *worstFirst) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// topk returns the exact ranked top-k.
func (o *oracle) topk(q vec.Query, k int) []scored {
	touched := o.scoreAll(q)
	defer o.reset(touched)
	return o.rank(touched, k)
}

func (o *oracle) rank(touched []int, k int) []scored {
	h := make(worstFirst, 0, k+1)
	for _, id := range touched {
		s := scored{id, o.acc[id]}
		if len(h) < k {
			heap.Push(&h, s)
		} else if less(s, h[0]) {
			h[0] = s
			heap.Fix(&h, 0)
		}
	}
	out := []scored(h)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// regions returns the exact ranked top-k and, from core.ExactRegions,
// the first phi+1 perturbations on each side of every query dimension.
// ExactRegions sweeps every line it is given, so it gets only a subset
// that decides the answer. On one side of one dimension every tuple is
// a line over the weight deviation x, and an event at x is a crossing
// at rank k, or above, of two lines scoring at least the k-th score
// there. Between two entry events the subset's top k are fixed lines,
// so its k-th score is their lowest, m(x), a concave function; a line
// minus m is convex, so a line below m at both ends of the stretch is
// below the subset's k-th score, and so below the full set's, all
// along it. A line below them up to X takes part in no event up to X,
// and leaving it out changes none. The subset starts with the result
// lines and X at the first event, found by brute force over the scored
// tuples. Each round adds every line that reaches the subset's k-th
// score up to X on some side, then sweeps the subset and moves X to
// its (phi+1)-th event there (the side's end if there are fewer); when
// a round adds no line, the subset's events are the full set's.
func (o *oracle) regions(q vec.Query, k, phi int) ([]scored, []core.Regions) {
	touched := o.scoreAll(q)
	defer o.reset(touched)
	res := o.rank(touched, k)
	if len(res) == 0 {
		return res, nil
	}
	ql := q.Len()
	proj := make([]float64, len(touched)*ql)
	for jx, d := range q.Dims {
		if d >= 0 && d < len(o.post) {
			for _, p := range o.post[d] {
				proj[(o.pos[p.id]-1)*ql+jx] = p.val
			}
		}
	}
	// Lines are named by their index among the touched. Sides are
	// numbered 2·jx (right: x = +δ) and 2·jx+1 (left: x = −δ).
	sign := func(s int) float64 { return float64(1 - 2*(s%2)) }
	end := func(s int) float64 {
		if s%2 == 0 {
			return 1 - q.Weights[s/2]
		}
		return q.Weights[s/2]
	}
	line := func(s, i int) geom.Line { return geom.Line{A: o.acc[touched[i]], B: sign(s) * proj[i*ql+s/2]} }
	inside := func(s int, x float64, ok bool) bool { return ok && x > 0 && x < end(s) }
	keep := make([]bool, len(touched))
	top := make([]int, len(res))
	for j, r := range res {
		top[j] = o.pos[r.id] - 1
		keep[top[j]] = true
	}
	kth := top[len(top)-1]

	xAt := make([]float64, 2*ql)
	for s := range xAt {
		first := end(s)
		for a, i := range top {
			for _, j := range top[a+1:] {
				if x, ok := line(s, i).IntersectX(line(s, j)); inside(s, x, ok) {
					first = math.Min(first, x)
				}
			}
		}
		for i := range touched {
			if x, ok := line(s, i).IntersectX(line(s, kth)); !keep[i] && inside(s, x, ok) {
				first = math.Min(first, x)
			}
		}
		xAt[s] = first
	}
	// reach keeps every line at or above the k-th score of set's lines
	// at a or at b, and reports whether it kept a new one.
	reach := func(s int, set []int, a, b float64) bool {
		floor := func(x float64) float64 {
			m := math.Inf(1)
			for _, i := range set {
				m = math.Min(m, line(s, i).Eval(x))
			}
			return m - tol*math.Max(1, math.Abs(m))
		}
		fa, fb := floor(a), floor(b)
		added := false
		for i := range touched {
			if l := line(s, i); !keep[i] && (l.Eval(a) >= fa || l.Eval(b) >= fb) {
				keep[i] = true
				added = true
			}
		}
		return added
	}
	var regs []core.Regions
	for {
		added := false
		for s, x := range xAt {
			set := append([]int(nil), top...)
			a := 0.0
			if regs != nil {
				perts := regs[s/2].Right
				if s%2 == 1 {
					perts = regs[s/2].Left
				}
				for _, p := range perts {
					if !p.Entry {
						continue
					}
					added = reach(s, set, a, math.Abs(p.Delta)) || added
					for j := range set {
						if touched[set[j]] == p.Above {
							set[j] = o.pos[p.Below] - 1
						}
					}
					a = math.Abs(p.Delta)
				}
			}
			added = reach(s, set, a, x) || added
		}
		if regs != nil && !added {
			return res, regs
		}
		var ids []int
		for i, id := range touched {
			if keep[i] {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		sub := make([]vec.Sparse, len(ids))
		for i, id := range ids {
			sub[i] = o.tuples[id]
		}
		// ExactRegions names tuples by their index in sub.
		regs = core.ExactRegions(sub, q, k, phi, false)
		for jx, reg := range regs {
			for _, side := range [][]core.Perturbation{reg.Right, reg.Left} {
				for i := range side {
					side[i].Above, side[i].Below = ids[side[i].Above], ids[side[i].Below]
				}
			}
			xAt[2*jx], xAt[2*jx+1] = end(2*jx), end(2*jx+1)
			if len(reg.Right) > phi {
				xAt[2*jx] = reg.Right[phi].Delta
			}
			if len(reg.Left) > phi {
				xAt[2*jx+1] = -reg.Left[phi].Delta
			}
		}
	}
}

// checkRanked compares a served ranking with the oracle's: at every rank
// the served score must equal the oracle's score at that rank, and the
// served id must be a live tuple whose true score is the served score.
// Ties at equal score may therefore be served in either order.
func (o *oracle) checkRanked(q vec.Query, want []scored, got []server.ResultEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	seen := make(map[int]bool, len(got))
	for i, g := range got {
		if !near(g.Score, want[i].score) {
			return fmt.Errorf("rank %d: score %v, want %v (id %d)", i, g.Score, want[i].score, want[i].id)
		}
		if seen[g.ID] {
			return fmt.Errorf("rank %d: id %d repeated", i, g.ID)
		}
		seen[g.ID] = true
		if g.ID != want[i].id {
			if !o.live(g.ID) {
				return fmt.Errorf("rank %d: id %d is not a live tuple", i, g.ID)
			}
			if s := q.Score(o.tuples[g.ID]); !near(s, g.Score) {
				return fmt.Errorf("rank %d: id %d scores %v, served as %v", i, g.ID, s, g.Score)
			}
		}
	}
	return nil
}

// checkTopK checks a /topk answer.
func (o *oracle) checkTopK(q vec.Query, k int, got []server.ResultEntry) error {
	return o.checkRanked(q, o.topk(q, k), got)
}

// checkAnalyze checks an /analyze answer: the ranked result and, per
// query dimension, the immutable-region bounds and every perturbation
// on each side (its position and the tuples that swap).
func (o *oracle) checkAnalyze(q vec.Query, k, phi int, got *server.AnalyzeResponse) error {
	want, regs := o.regions(q, k, phi)
	if err := o.checkRanked(q, want, got.Result); err != nil {
		return err
	}
	if len(got.Regions) != len(regs) {
		return fmt.Errorf("%d regions, want %d", len(got.Regions), len(regs))
	}
	for i, g := range got.Regions {
		w := regs[i]
		if g.Dim != w.Dim || math.Abs(g.Lo-w.Lo) > tol || math.Abs(g.Hi-w.Hi) > tol {
			return fmt.Errorf("dim %d: region [%v, %v], want dim %d [%v, %v]", g.Dim, g.Lo, g.Hi, w.Dim, w.Lo, w.Hi)
		}
		if err := checkPerts(g.Left, w.Left); err != nil {
			return fmt.Errorf("dim %d left: %v", g.Dim, err)
		}
		if err := checkPerts(g.Right, w.Right); err != nil {
			return fmt.Errorf("dim %d right: %v", g.Dim, err)
		}
	}
	return nil
}

// checkPerts compares one side's perturbations the way the core
// property tests do: the same count, and each at the same deviation
// within tol with the same tuples swapping.
func checkPerts(got []server.PerturbationJSON, want []core.Perturbation) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d perturbations, want %d", len(got), len(want))
	}
	for i, g := range got {
		if w := want[i]; math.Abs(g.Delta-w.Delta) > tol || g.Above != w.Above || g.Below != w.Below || g.Entry != w.Entry {
			return fmt.Errorf("perturbation %d: %+v, want %+v", i, g, w)
		}
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }
