package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

// contributor is the accessor core.WithImposed's runner exposes.
type contributor interface {
	ContributedLines() []topk.Scored
}

// shardRound2 runs the shard side of a distributed analysis over an
// id-range partition of tuples: every shard computes its regions with
// the union's result imposed. It returns, per shard, the lines the
// shard reports for the coordinator's replay and its full candidate
// view (both under global ids).
func shardRound2(t *testing.T, tuples []vec.Sparse, m, shards int, q vec.Query, k int, res []topk.Scored, opts core.Options) (shipped, cands [][]topk.Scored) {
	t.Helper()
	for s := 0; s < shards; s++ {
		lo, hi := s*len(tuples)/shards, (s+1)*len(tuples)/shards
		part := append([]vec.Sparse(nil), tuples[lo:hi]...)
		ta := topk.New(lists.NewMemIndex(part, m), q, k, topk.BestList)
		r := core.WithImposed(ta, lo, res)
		if _, err := core.ComputeView(context.Background(), r, opts); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		shipped = append(shipped, r.(contributor).ContributedLines())
		cands = append(cands, append([]topk.Scored(nil), r.Candidates()...))
	}
	return shipped, cands
}

func sortedUnion(parts [][]topk.Scored) []topk.Scored {
	var out []topk.Scored
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.SortFunc(out, func(a, b topk.Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		default:
			return a.ID - b.ID
		}
	})
	return out
}

// TestReplayShippedEqualsAllCandidates is the exactness property of the
// round-2 wire contract: replaying only the lines the shards report
// (ContributedLines) yields the same regions as replaying every
// candidate the shards hold, and both equal a single node over the
// union, for every method on every envelope path. On the classic φ = 0
// path the shards report no lines at all.
func TestReplayShippedEqualsAllCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	trials := 40
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		n := 40 + rng.Intn(80)
		cs := fixture.RandCase(rng, n, 5+rng.Intn(3), 2+rng.Intn(2), 1+rng.Intn(4))
		for _, method := range core.Methods {
			variants := []core.Options{
				{Method: method},
				{Method: method, Phi: 1},
				{Method: method, Phi: 2},
				{Method: method, Phi: 2, Iterative: true},
				{Method: method, Phi: 1, CompositionOnly: true},
				{Method: method, ForceEnvelope: true},
			}
			for _, opts := range variants {
				single := topk.New(lists.NewMemIndex(cs.Tuples, cs.M), cs.Q, cs.K, topk.BestList)
				want, err := core.Compute(context.Background(), single, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{2, 3, 4} {
					label := fmt.Sprintf("trial=%d n=%d k=%d shards=%d %v phi=%d iter=%v comp=%v force=%v",
						trial, n, cs.K, shards, method, opts.Phi, opts.Iterative, opts.CompositionOnly, opts.ForceEnvelope)
					shipped, cands := shardRound2(t, cs.Tuples, cs.M, shards, cs.Q, cs.K, want.Result, opts)
					if !opts.Envelope() {
						for s, a := range shipped {
							if len(a) != 0 {
								t.Fatalf("%s: shard %d reports %d lines on the classic path", label, s, len(a))
							}
						}
						continue
					}
					got := core.ReplayRegions(cs.Q, cs.K, want.Result, sortedUnion(shipped), opts)
					all := core.ReplayRegions(cs.Q, cs.K, want.Result, sortedUnion(cands), opts)
					compareRegions(t, label+" shipped-vs-all", got, all)
					compareRegions(t, label+" shipped-vs-single", got, want.Regions)
				}
			}
		}
	}
}

// TestShardHorizonIsNotTheUnions is a hand-built arrangement where a
// shard's own horizon ends before the union's, so a shard that shipped
// only the lines its boundary accepted would drop one the union needs
// (the shard side bounds the union's horizon by unionHorizon instead).
// Query dims (0, 1) with weights (0.01, 0.5), k = 1, φ = 1; on the
// right side of dimension 0 the lines are y = score + x·t0:
//
//	id 0  r  score .333  slope 0      the result
//	id 1  C  score .300  slope .333   enters over r at x = .1
//	id 2  A  score .267  slope .333   parallel to C, always below it
//	id 3  B  score .247  slope .400   overtakes A at x = .3
//	id 4  D  score .033  slope 1      overtakes C at x = .4
//
// Over all five lines the events are C at .1 and D at .4. Shard 1
// holds A, B and D but not C: it sees A enter at .2 and B overtake A
// at .3, so its own horizon is .3 and D, which first tops that shard's
// envelope at about .36, is rejected there. The union's horizon is .4,
// and D is its second event.
func TestShardHorizonIsNotTheUnions(t *testing.T) {
	const w0, w1 = 0.01, 0.5
	line := func(score, slope float64) vec.Sparse {
		s, err := vec.NewSparse([]vec.Entry{{Dim: 0, Val: slope}, {Dim: 1, Val: (score - w0*slope) / w1}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tuples := []vec.Sparse{
		line(1.0/3, 0),
		line(0.9/3, 1.0/3),
		line(0.8/3, 1.0/3),
		line(0.74/3, 1.2/3),
		line(0.1/3, 1),
	}
	q := vec.MustQuery([]int{0, 1}, []float64{w0, w1})
	for _, method := range core.Methods {
		opts := core.Options{Method: method, Phi: 1}
		want, err := core.Compute(context.Background(), topk.New(lists.NewMemIndex(tuples, 2), q, 1, topk.BestList), opts)
		if err != nil {
			t.Fatal(err)
		}
		compareRegions(t, method.String()+" single node", want.Regions, core.ExactRegions(tuples, q, 1, 1, false))
		if r := want.Regions[0].Right; len(r) != 2 || r[0].Below != 1 || r[1].Below != 4 {
			t.Fatalf("%v: single node's right-side events %+v, want C (1) then D (4)", method, r)
		}
		shipped, _ := shardRound2(t, tuples, 2, 2, q, 1, want.Result, opts)
		got := core.ReplayRegions(q, 1, want.Result, sortedUnion(shipped), opts)
		compareRegions(t, method.String(), got, want.Regions)
	}
}
