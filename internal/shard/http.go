// HTTP glue of the scatter-gather layer: a Backend that speaks to a
// shard's primary+standbys group over internal/client (so sharding
// composes with HA — the client follows redirects and fails over
// within the group), and the coordinator's own handler exposing the
// public /topk, /analyze, /update and /delete surface over the merge.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/topk"
	"repro/internal/vec"
)

// HTTPBackend drives one shard group over HTTP. C's seeds are the
// group's members; writes follow the client's primary routing.
type HTTPBackend struct {
	C *client.Client
}

// NewHTTPBackends builds one backend per shard group. groupSeeds[i]
// lists shard i's member base URLs (primary plus standbys, any order);
// base carries the shared client tuning (retries, timeouts) — its Seeds
// are ignored and its ID becomes a per-shard prefix.
func NewHTTPBackends(groupSeeds [][]string, base client.Config) ([]Backend, error) {
	backends := make([]Backend, len(groupSeeds))
	for i, seeds := range groupSeeds {
		cfg := base
		cfg.Seeds = seeds
		cfg.ID = fmt.Sprintf("%s-shard%d", base.ID, i)
		cl, err := client.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		backends[i] = HTTPBackend{C: cl}
	}
	return backends, nil
}

func (h HTTPBackend) TopK(ctx context.Context, q vec.Query, k int) ([]topk.Scored, error) {
	body, err := json.Marshal(server.QueryRequest{Dims: q.Dims, Weights: q.Weights, K: k})
	if err != nil {
		return nil, err
	}
	var resp server.ShardTopKResponse
	if err := h.C.PostJSON(ctx, "/shard/topk", body, &resp); err != nil {
		return nil, err
	}
	return server.FromScoredJSON(resp.Result), nil
}

func (h HTTPBackend) AnalyzeImposed(ctx context.Context, q vec.Query, k, base int, imposed []topk.Scored, opts engine.Options) (*core.Output, []topk.Scored, error) {
	body, err := json.Marshal(server.ShardAnalyzeRequest{
		Dims:            q.Dims,
		Weights:         q.Weights,
		K:               k,
		Base:            base,
		Imposed:         server.ToScoredJSON(imposed),
		Phi:             opts.Phi,
		Method:          opts.Method.Name(),
		CompositionOnly: opts.CompositionOnly,
		ForceEnvelope:   opts.ForceEnvelope,
		Iterative:       opts.Iterative,
	})
	if err != nil {
		return nil, nil, err
	}
	var resp server.ShardAnalyzeResponse
	if err := h.C.PostJSON(ctx, "/shard/analyze", body, &resp); err != nil {
		return nil, nil, err
	}
	out := &core.Output{
		Query:   q,
		K:       k,
		Result:  imposed,
		Regions: server.FromRegionsJSON(resp.Regions),
		Metrics: resp.Metrics,
	}
	return out, server.FromScoredJSON(resp.Lines), nil
}

// Apply ships the batch as /update and /delete calls, splitting runs at
// kind boundaries (inserts and updates share /update; deletes need
// /delete) while preserving op order. Per-op engine errors come back as
// strings; they are surfaced as opaque errors in the same slots.
func (h HTTPBackend) Apply(ops []engine.Op) (engine.ApplyResult, error) {
	ctx := context.Background()
	res := engine.ApplyResult{Results: make([]engine.OpResult, len(ops))}
	for start := 0; start < len(ops); {
		del := ops[start].Kind == engine.OpDelete
		end := start + 1
		for end < len(ops) && (ops[end].Kind == engine.OpDelete) == del {
			end++
		}
		var body []byte
		var err error
		path := "/update"
		if del {
			path = "/delete"
			req := server.DeleteRequest{}
			for _, op := range ops[start:end] {
				req.IDs = append(req.IDs, op.ID)
			}
			body, err = json.Marshal(req)
		} else {
			req := server.UpdateRequest{}
			for _, op := range ops[start:end] {
				oj := server.UpdateOpJSON{}
				if op.Kind == engine.OpUpdate {
					id := op.ID
					oj.ID = &id
				}
				for _, e := range op.Tuple {
					oj.Tuple = append(oj.Tuple, server.TupleEntryJSON{Dim: e.Dim, Val: e.Val})
				}
				req.Ops = append(req.Ops, oj)
			}
			body, err = json.Marshal(req)
		}
		if err != nil {
			return res, err
		}
		var resp server.MutateResponse
		if err := h.C.PostJSON(ctx, path, body, &resp); err != nil {
			return res, err
		}
		if len(resp.Results) != end-start {
			return res, fmt.Errorf("shard: %s returned %d results for %d ops", path, len(resp.Results), end-start)
		}
		for j, or := range resp.Results {
			r := engine.OpResult{ID: or.ID}
			if or.Error != "" {
				r.Err = errors.New(or.Error)
			}
			res.Results[start+j] = r
		}
		res.Applied += resp.Applied
		res.CacheChecked += resp.CacheChecked
		res.CacheEvicted += resp.CacheEvicted
		res.CacheSurvived += resp.CacheSurvived
		start = end
	}
	return res, nil
}

// SelfBeacon is the GET /cluster document a STANDALONE shard server
// advertises: a confirmed, ready, single-member primary. It makes a
// bare shard routable by internal/client — the same discovery path an
// HA shard group uses — so sharding composes with both deployments.
// Pass the result to (*server.Server).SetClusterInfo.
func SelfBeacon(nodeID, httpAddr string) func() any {
	ci := replication.ClusterInfo{
		NodeID:      nodeID,
		Role:        string(replication.RolePrimary),
		Confirmed:   true,
		Ready:       true,
		HTTPAddr:    httpAddr,
		PrimaryHTTP: httpAddr,
	}
	return func() any { return ci }
}

// NewHandler exposes the coordinator behind the public single-node
// surface — /topk, /analyze, /update, /delete, plus /healthz and
// /metrics — so existing clients work unchanged against a sharded
// deployment. Degraded answers (allow-partial) carry an X-Partial
// header, and /analyze additionally sets the partial response field.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/topk", func(w http.ResponseWriter, r *http.Request) {
		req, q, ok := decodeQuery(w, r)
		if !ok {
			return
		}
		res, err := c.TopK(r.Context(), q, req.K)
		if err != nil {
			scatterError(w, err)
			return
		}
		if res.Partial {
			w.Header().Set("X-Partial", "true")
		}
		entries := make([]server.ResultEntry, len(res.Result))
		for i, sc := range res.Result {
			entries[i] = server.ResultEntry{ID: sc.ID, Score: sc.Score}
		}
		writeJSON(w, http.StatusOK, entries)
	})
	mux.HandleFunc("/analyze", func(w http.ResponseWriter, r *http.Request) {
		req, q, ok := decodeQuery(w, r)
		if !ok {
			return
		}
		method, err := core.ParseMethod(req.Method)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		opts := engine.Options{Options: core.Options{
			Method:          method,
			Phi:             req.Phi,
			CompositionOnly: req.CompositionOnly,
		}}
		an, err := c.Analyze(r.Context(), q, req.K, opts)
		if err != nil {
			scatterError(w, err)
			return
		}
		resp := server.AnalyzeResponse{Partial: an.Partial}
		if an.Partial {
			w.Header().Set("X-Partial", "true")
		}
		for _, sc := range an.Result {
			resp.Result = append(resp.Result, server.ResultEntry{ID: sc.ID, Score: sc.Score})
		}
		resp.Regions = server.ToRegionsJSON(an.Regions)
		resp.Metrics = server.ToMetricsJSON(an.Metrics)
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/update", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		var req server.UpdateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err))
			return
		}
		if len(req.Ops) == 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("empty op batch"))
			return
		}
		results := make([]server.OpResultJSON, len(req.Ops))
		var ops []engine.Op
		var opIdx []int
		for i, op := range req.Ops {
			entries := make([]vec.Entry, len(op.Tuple))
			for j, e := range op.Tuple {
				entries[j] = vec.Entry{Dim: e.Dim, Val: e.Val}
			}
			t, err := vec.NewSparse(entries)
			if err == nil && t.NNZ() == 0 {
				err = fmt.Errorf("empty tuple (use /delete to remove a tuple)")
			}
			if err != nil {
				id := -1
				if op.ID != nil {
					id = *op.ID
				}
				results[i] = server.OpResultJSON{ID: id, Error: err.Error()}
				continue
			}
			if op.ID != nil {
				ops = append(ops, engine.Op{Kind: engine.OpUpdate, ID: *op.ID, Tuple: t})
			} else {
				ops = append(ops, engine.Op{Kind: engine.OpInsert, Tuple: t})
			}
			opIdx = append(opIdx, i)
		}
		applyOps(w, c, ops, opIdx, results)
	})
	mux.HandleFunc("/delete", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
			return
		}
		var req server.DeleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err))
			return
		}
		if len(req.IDs) == 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("empty id list"))
			return
		}
		ops := make([]engine.Op, len(req.IDs))
		opIdx := make([]int, len(req.IDs))
		for i, id := range req.IDs {
			ops[i] = engine.Op{Kind: engine.OpDelete, ID: id}
			opIdx[i] = i
		}
		applyOps(w, c, ops, opIdx, make([]server.OpResultJSON, len(req.IDs)))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", obs.Handler())
	return obs.RequestID(mux)
}

// applyOps routes the parsed batch through the coordinator and renders
// the single-node mutation response shape.
func applyOps(w http.ResponseWriter, c *Coordinator, ops []engine.Op, opIdx []int, results []server.OpResultJSON) {
	resp := server.MutateResponse{Results: results}
	if len(ops) > 0 {
		res, err := c.Apply(ops)
		if err != nil {
			scatterError(w, err)
			return
		}
		for j, or := range res.Results {
			results[opIdx[j]] = server.OpResultJSON{ID: or.ID}
			if or.Err != nil {
				results[opIdx[j]].Error = or.Err.Error()
			}
		}
		resp.Applied = res.Applied
		resp.CacheChecked = res.CacheChecked
		resp.CacheEvicted = res.CacheEvicted
		resp.CacheSurvived = res.CacheSurvived
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeQuery parses the shared topk/analyze request shape.
func decodeQuery(w http.ResponseWriter, r *http.Request) (server.QueryRequest, vec.Query, bool) {
	var req server.QueryRequest
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return req, vec.Query{}, false
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err))
		return req, vec.Query{}, false
	}
	q, err := vec.NewQuery(req.Dims, req.Weights)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return req, vec.Query{}, false
	}
	return req, q, true
}

// scatterError maps a merge failure to a status: client faults are
// 400s, shard unavailability is a 502 (the coordinator is a gateway).
func scatterError(w http.ResponseWriter, err error) {
	if errors.Is(err, engine.ErrInvalid) {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	httpError(w, http.StatusBadGateway, err)
}

// writeJSON and httpError mirror the single-node server's envelope.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		obs.Log().Error("shard: encode response", "err", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
