package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/server"
	"repro/internal/topk"
	"repro/internal/vec"
)

// shardCandidates recomputes shard i's round-2 candidate view in
// process — the same imposed-result computation /shard/analyze runs —
// and returns every candidate line under global ids.
func shardCandidates(t *testing.T, tuples []vec.Sparse, m int, bases []int, i int, q vec.Query, k int, res []topk.Scored, opts core.Options) []topk.Scored {
	t.Helper()
	hi := len(tuples)
	if i+1 < len(bases) {
		hi = bases[i+1]
	}
	part := append([]vec.Sparse(nil), tuples[bases[i]:hi]...)
	r := core.WithImposed(topk.New(lists.NewMemIndex(part, m), q, k, topk.BestList), bases[i], res)
	if _, err := core.ComputeView(context.Background(), r, opts); err != nil {
		t.Fatalf("shard %d: %v", i, err)
	}
	return append([]topk.Scored(nil), r.Candidates()...)
}

// postShardAnalyze sends one round-2 request to a shard server and
// returns the raw reply body.
func postShardAnalyze(t *testing.T, url string, req server.ShardAnalyzeRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/shard/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/shard/analyze: %d %s", resp.StatusCode, raw)
	}
	return raw
}

// TestShardAnalyzeWireContract pins what a /shard/analyze reply ships
// besides the regions. At φ = 0 (the classic path, merged by min/max
// of the per-shard bounds) the reply has no lines at all. At φ ∈ {1, 2}
// its lines are a subset of the shard's candidates, carried with their
// exact floats, and they include every line of the shard that the
// replay over the full candidate union names in a perturbation — the
// lines that replay's answer is made of.
func TestShardAnalyzeWireContract(t *testing.T) {
	rng := rand.New(rand.NewSource(4401))
	ctx := context.Background()
	trials := 6
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		cs := fixture.RandCase(rng, 60+rng.Intn(60), 6, 2+rng.Intn(2), 2+rng.Intn(3))
		shards := 2 + rng.Intn(3)
		bases := EvenBases(len(cs.Tuples), shards)
		hc := newHTTPCluster(t, cs.Tuples, cs.M, shards, Config{})
		single := singleNode(cs.Tuples, cs.M)
		for _, method := range core.Methods {
			for phi := 0; phi <= 2; phi++ {
				opts := core.Options{Method: method, Phi: phi}
				tag := fmt.Sprintf("trial %d shards %d %v φ=%d", trial, shards, method, phi)
				want, err := single.Analyze(ctx, cs.Q, cs.K, engine.Options{Options: opts})
				if err != nil {
					t.Fatal(err)
				}
				req := server.ShardAnalyzeRequest{
					Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: cs.K,
					Imposed: server.ToScoredJSON(want.Result),
					Phi:     phi, Method: method.Name(),
				}
				shipped := make([]map[int]bool, shards)
				var union []topk.Scored
				for i := range hc.shards {
					req.Base = bases[i]
					raw := postShardAnalyze(t, hc.shards[i].URL, req)
					var fields map[string]json.RawMessage
					if err := json.Unmarshal(raw, &fields); err != nil {
						t.Fatal(err)
					}
					if _, ok := fields["lines"]; ok && phi == 0 {
						t.Fatalf("%s: shard %d sends lines on the classic path: %s", tag, i, fields["lines"])
					}
					var resp server.ShardAnalyzeResponse
					if err := json.Unmarshal(raw, &resp); err != nil {
						t.Fatal(err)
					}
					cands := shardCandidates(t, cs.Tuples, cs.M, bases, i, cs.Q, cs.K, want.Result, opts)
					union = append(union, cands...)
					shipped[i] = map[int]bool{}
					for _, ln := range server.FromScoredJSON(resp.Lines) {
						j := slices.IndexFunc(cands, func(c topk.Scored) bool { return c.ID == ln.ID })
						if j < 0 {
							t.Fatalf("%s: shard %d ships line %d, not one of its candidates", tag, i, ln.ID)
						}
						diffScored(t, tag+"/line", []topk.Scored{ln}, cands[j:j+1])
						shipped[i][ln.ID] = true
					}
				}
				if phi == 0 {
					continue
				}
				// The replay over every candidate of every shard is the
				// reference merge: it must match the single node, and each
				// non-result line its perturbations name must have been
				// shipped by the shard that owns it.
				regs := core.ReplayRegions(cs.Q, cs.K, want.Result, sortScoredGlobal(union), opts)
				diffOutputs(t, tag+"/replay", &core.Output{Result: want.Result, Regions: regs}, want.Output)
				inResult := map[int]bool{}
				for _, sc := range want.Result {
					inResult[sc.ID] = true
				}
				for _, reg := range regs {
					for _, p := range append(append([]core.Perturbation(nil), reg.Left...), reg.Right...) {
						for _, id := range []int{p.Above, p.Below} {
							if !inResult[id] && !shipped[Map{Bases: bases}.Owner(id)][id] {
								t.Fatalf("%s: replay names line %d, which its shard did not ship", tag, id)
							}
						}
					}
				}
			}
		}
	}
}

// TestHTTPMetricsMatchLocal checks that the HTTP coordinator carries
// every counter the merge sums across the wire: on the same queries
// over the same partition, it reports the same merged Metrics counters
// as a coordinator over in-process shards, and its public /analyze
// reports the per-dimension average instead of 0.
func TestHTTPMetricsMatchLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(4501))
	ctx := context.Background()
	cs := fixture.RandCase(rng, 90, 6, 3, 3)
	hc := newHTTPCluster(t, cs.Tuples, cs.M, 3, Config{})
	local := localCoord(t, cs.Tuples, cs.M, 3, Config{})
	for vi, opts := range optsVariants(rng) {
		h, err := hc.coord.Analyze(ctx, cs.Q, cs.K, opts)
		if err != nil {
			t.Fatalf("variant %d: http analyze: %v", vi, err)
		}
		l, err := local.Analyze(ctx, cs.Q, cs.K, opts)
		if err != nil {
			t.Fatalf("variant %d: local analyze: %v", vi, err)
		}
		hm, lm := h.Metrics, l.Metrics
		if hm.Evaluated != lm.Evaluated || !slices.Equal(hm.EvaluatedPerDim, lm.EvaluatedPerDim) ||
			hm.Phase3Pulled != lm.Phase3Pulled || hm.SeqPages != lm.SeqPages ||
			hm.RandReads != lm.RandReads || hm.MemBytes != lm.MemBytes {
			t.Fatalf("variant %d: http metrics %+v, local %+v", vi, hm, lm)
		}
		if len(lm.EvaluatedPerDim) != cs.Q.Len() {
			t.Fatalf("variant %d: %d per-dimension counts for %d dimensions", vi, len(lm.EvaluatedPerDim), cs.Q.Len())
		}

		var resp server.AnalyzeResponse
		req := server.QueryRequest{Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: cs.K,
			Method: opts.Method.Name(), Phi: opts.Phi, CompositionOnly: opts.CompositionOnly}
		if code, _ := hc.postJSON(t, "/analyze", req, &resp); code != http.StatusOK {
			t.Fatalf("variant %d: /analyze status %d", vi, code)
		}
		if opts.Iterative || opts.ForceEnvelope {
			continue // the public dialect cannot ask for these
		}
		if resp.Metrics.Evaluated != lm.Evaluated || resp.Metrics.EvaluatedAvg != lm.EvaluatedPerDimAvg() {
			t.Fatalf("variant %d: /analyze metrics %+v, want evaluated %d per dim %v",
				vi, resp.Metrics, lm.Evaluated, lm.EvaluatedPerDimAvg())
		}
	}
}
