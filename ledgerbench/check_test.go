package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/vec"
)

// served answers q through an in-process engine and renders the /analyze
// and /topk bodies a server would send.
func served(t *testing.T, eng *engine.Engine, q vec.Query, k int) (*server.AnalyzeResponse, []server.ResultEntry) {
	t.Helper()
	a, err := eng.Analyze(context.Background(), q, k, engine.Options{NoCache: true, Options: core.Options{Phi: 2}})
	if err != nil {
		t.Fatal(err)
	}
	resp := &server.AnalyzeResponse{}
	var top []server.ResultEntry
	for _, sc := range a.Result {
		resp.Result = append(resp.Result, server.ResultEntry{ID: sc.ID, Score: sc.Score})
		top = append(top, server.ResultEntry{ID: sc.ID, Score: sc.Score})
	}
	for _, reg := range a.Regions {
		rj := server.RegionJSON{Dim: reg.Dim, Lo: reg.Lo, Hi: reg.Hi}
		for _, p := range reg.Left {
			rj.Left = append(rj.Left, server.PerturbationJSON(p))
		}
		for _, p := range reg.Right {
			rj.Right = append(rj.Right, server.PerturbationJSON(p))
		}
		resp.Regions = append(resp.Regions, rj)
	}
	return resp, top
}

func readRecord(kind opKind, q vec.Query, k int, at time.Time) *record {
	return &record{op: op{kind: kind, q: q, k: k, phi: 2}, status: 200, send: at, recv: at.Add(time.Millisecond)}
}

// TestCheckerCountsCorruptedAnswers feeds the checker correct answers and
// corrupted copies of them: a shifted region bound, a shifted second
// perturbation, a second perturbation naming the wrong tuple, a wrong
// result id, a stale tuple served after its delete. Only the corrupted
// ones may count, each as one wrong answer.
func TestCheckerCountsCorruptedAnswers(t *testing.T) {
	ds := dataset.GenerateWSJ(dataset.WSJConfig{Docs: 600, Vocab: 300, MeanTerms: 12, Seed: 7})
	eng := engine.New(ds.Index(), engine.Config{CacheEntries: -1})
	d := newDraws(newSampler(ds), 3, streamLoad, 0)
	q, k := d.query()
	good, top := served(t, eng, q, k)
	t0 := time.Now()

	var recs []*record
	r := readRecord(opAnalyze, q, k, t0)
	r.analyze = good
	recs = append(recs, r)
	r = readRecord(opTopK, q, k, t0)
	r.topk = top
	recs = append(recs, r)

	shifted := *good
	shifted.Regions = append([]server.RegionJSON(nil), good.Regions...)
	shifted.Regions[0].Hi += 1e-6
	r = readRecord(opAnalyze, q, k, t0)
	r.analyze = &shifted
	recs = append(recs, r)

	// Corrupt the second perturbation (φ = 2 gives three a side) of the
	// first side that has one: its position, then the tuple it brings in.
	second := func(corrupt func(p *server.PerturbationJSON)) *server.AnalyzeResponse {
		bad := *good
		bad.Regions = append([]server.RegionJSON(nil), good.Regions...)
		for i := range bad.Regions {
			reg := &bad.Regions[i]
			for _, side := range []*[]server.PerturbationJSON{&reg.Right, &reg.Left} {
				if len(*side) > 1 {
					*side = append([]server.PerturbationJSON(nil), *side...)
					corrupt(&(*side)[1])
					return &bad
				}
			}
		}
		t.Fatal("no dimension has a second perturbation")
		return nil
	}
	r = readRecord(opAnalyze, q, k, t0)
	r.analyze = second(func(p *server.PerturbationJSON) { p.Delta += 1e-6 })
	recs = append(recs, r)
	r = readRecord(opAnalyze, q, k, t0)
	r.analyze = second(func(p *server.PerturbationJSON) { p.Below = (p.Below + 1) % ds.N() })
	recs = append(recs, r)

	wrongID := append([]server.ResultEntry(nil), top...)
	wrongID[len(wrongID)-1].ID = (wrongID[len(wrongID)-1].ID + 1) % ds.N()
	r = readRecord(opTopK, q, k, t0)
	r.topk = wrongID
	recs = append(recs, r)

	// Delete the top tuple; a /topk answered after the delete was
	// acknowledged must not serve it.
	del := &record{op: op{kind: opDelete, del: []int{top[0].ID}}, status: 200,
		send: t0.Add(2 * time.Millisecond), recv: t0.Add(3 * time.Millisecond),
		mutate: &server.MutateResponse{Results: []server.OpResultJSON{{ID: top[0].ID}}, Applied: 1}}
	recs = append(recs, del)
	r = readRecord(opTopK, q, k, t0.Add(4*time.Millisecond))
	r.topk = top
	recs = append(recs, r)

	v := checkRecords(newOracle(ds.Tuples, ds.M), recs)
	if v.wrong != 5 || v.failed != 5 {
		t.Fatalf("wrong %d failed %d, want 5 and 5; samples %q", v.wrong, v.failed, v.samples)
	}
}

// TestCheckerAcceptsInFlightWrite: a read overlapping a write batch may
// reflect it or not.
func TestCheckerAcceptsInFlightWrite(t *testing.T) {
	ds := dataset.GenerateWSJ(dataset.WSJConfig{Docs: 600, Vocab: 300, MeanTerms: 12, Seed: 7})
	eng := engine.New(ds.Index(), engine.Config{CacheEntries: -1})
	d := newDraws(newSampler(ds), 4, streamLoad, 1)
	q, k := d.query()
	_, before := served(t, eng, q, k)
	t0 := time.Now()
	del := &record{op: op{kind: opDelete, del: []int{before[0].ID}}, status: 200,
		send: t0, recv: t0.Add(5 * time.Millisecond),
		mutate: &server.MutateResponse{Results: []server.OpResultJSON{{ID: before[0].ID}}, Applied: 1}}
	r := readRecord(opTopK, q, k, t0.Add(time.Millisecond))
	r.topk = before
	if v := checkRecords(newOracle(ds.Tuples, ds.M), []*record{del, r}); v.failed != 0 {
		t.Fatalf("read overlapping the delete was rejected: %q", v.samples)
	}
}

// TestOracleRegionsMatchFullSweep: the oracle sweeps only the lines that
// decide the first φ+1 events; its regions must equal core.ExactRegions
// over every tuple.
func TestOracleRegionsMatchFullSweep(t *testing.T) {
	ds := dataset.GenerateWSJ(dataset.WSJConfig{Docs: 600, Vocab: 300, MeanTerms: 12, Seed: 7})
	o := newOracle(ds.Tuples, ds.M)
	d := newDraws(newSampler(ds), 5, streamLoad, 0)
	for i := 0; i < 42; i++ {
		q, k := d.query()
		for _, phi := range []int{0, 2} {
			_, got := o.regions(q, k, phi)
			want := core.ExactRegions(ds.Tuples, q, k, phi, false)
			if len(got) != len(want) {
				t.Fatalf("query %d φ=%d: %d regions, want %d", i, phi, len(got), len(want))
			}
			for j := range want {
				g, w := got[j], want[j]
				if g.Dim != w.Dim || g.Lo != w.Lo || g.Hi != w.Hi || !samePerts(g.Left, w.Left) || !samePerts(g.Right, w.Right) {
					t.Fatalf("query %d φ=%d dim %d: %+v, want %+v", i, phi, w.Dim, g, w)
				}
			}
		}
	}
}

func samePerts(a, b []core.Perturbation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
