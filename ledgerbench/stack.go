package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Serving settings. Everything not named here is irserver's default.
const (
	poolPages = 1024 // irserver -pool default
	// write-mix checkpoints on a fixed cadence instead of a low size
	// threshold: under continuous writes a threshold-triggered checkpoint
	// is redone after every batch that lands during its rewrite, so run
	// length decides how many complete and the workload does not settle
	// (see README.md).
	checkpointEvery = 4 * time.Second
	shardRetries    = 1 // irproxy -shard-retries default
	upstreamTimeout = 10 * time.Second
)

// stack is one running deployment: the HTTP servers, the engines behind
// them, and what the client and the traced run need to reach them.
type stack struct {
	url       string           // the client entry point
	serverURL []string         // every server.Server, for /stats and /debug/slowlog
	engines   []*engine.Engine // in shard order when sharded
	sampler   *sampler
	m         int    // dataset dimensionality
	n         int    // tuples served at start
	dir       string // data directory of disk-backed stacks
	bases     []int  // shard id-range starts when sharded
	stops     []func()
}

// close stops the servers (clients first) and then the engines.
func (s *stack) close() error {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	var first error
	for _, e := range s.engines {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// serve runs h on ln until the returned stop is called; stop waits for
// the server goroutine to end.
func serve(ln net.Listener, h http.Handler) func() {
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ledgerbench: serve:", err)
		}
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		<-done
	}
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// addServer serves one server.Server the way irserver does (access log
// around the routed handler) inside the tracer's middleware.
func (s *stack) addServer(srv *server.Server, tr *tracer, ln net.Listener, url string) {
	srv.SetSlowQuery(tr.slowQuery())
	s.stops = append(s.stops, serve(ln, tr.middleware("server", obs.AccessLog(srv.Handler()))))
	s.serverURL = append(s.serverURL, url)
	s.url = url
}

// saveDataset writes ds in the on-disk formats into dir and returns the
// bytes written.
func saveDataset(ds *dataset.Dataset, dir string) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if err := ds.Save(filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")); err != nil {
		return 0, err
	}
	return dirSize(dir)
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total, err
}

// buildDisk serves WSJ×2 from a dataset directory through
// engine.OpenDir with the given engine settings.
func buildDisk(dir string, tr *tracer, cfg engine.Config) (*stack, error) {
	ds := wsj(2)
	if _, err := saveDataset(ds, dir); err != nil {
		return nil, err
	}
	st := &stack{sampler: newSampler(ds), m: ds.M, n: ds.N(), dir: dir}
	eng, err := engine.OpenDir(dir, poolPages, cfg)
	if err != nil {
		return nil, err
	}
	st.engines = append(st.engines, eng)
	ln, url, err := listen()
	if err != nil {
		st.close()
		return nil, err
	}
	st.addServer(server.FromEngine(eng), tr, ln, url)
	return st, nil
}

func buildUncached(dir string, tr *tracer) (*stack, error) {
	return buildDisk(dir, tr, engine.Config{})
}

func buildWriteMix(dir string, tr *tracer) (*stack, error) {
	return buildDisk(dir, tr, engine.Config{WAL: true, WALSync: wal.SyncPolicy{Mode: wal.SyncBatch}})
}

// buildSessions serves WSJ×1 from memory through server.NewWithConfig.
func buildSessions(_ string, tr *tracer) (*stack, error) {
	ds := wsj(1)
	srv := server.NewWithConfig(ds.Index(), server.Config{})
	st := &stack{sampler: newSampler(ds), m: ds.M, n: ds.N(), engines: []*engine.Engine{srv.Engine()}}
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	st.addServer(srv, tr, ln, url)
	return st, nil
}

// buildSharded serves ST split by id range over stShards in-memory
// shard servers, behind the scatter-gather coordinator that reaches
// them over loopback HTTP.
func buildSharded(_ string, tr *tracer) (*stack, error) {
	ds := stData()
	bases := shard.EvenBases(ds.N(), stShards)
	engs, err := engine.NewLocalShards(ds.Tuples, ds.M, bases, engine.Config{})
	if err != nil {
		return nil, err
	}
	s := &stack{sampler: newSampler(ds), m: ds.M, n: ds.N(), engines: engs, bases: bases}
	groups := make([][]string, len(engs))
	for i, e := range engs {
		ln, url, err := listen()
		if err != nil {
			s.close()
			return nil, err
		}
		srv := server.FromEngine(e)
		srv.SetClusterInfo(shard.SelfBeacon(fmt.Sprintf("shard-%d", i), url))
		s.addServer(srv, tr, ln, url)
		groups[i] = []string{url}
	}
	backends, err := shard.NewHTTPBackends(groups, client.Config{
		ID:         "ledgerbench",
		HTTPClient: &http.Client{Timeout: upstreamTimeout, Transport: idTransport{http.DefaultTransport}},
	})
	if err != nil {
		s.close()
		return nil, err
	}
	coord, err := newCoordinator(bases, backends, tr)
	if err != nil {
		s.close()
		return nil, err
	}
	ln, url, err := listen()
	if err != nil {
		s.close()
		return nil, err
	}
	s.stops = append(s.stops, serve(ln, tr.middleware("coord", obs.AccessLog(shard.NewHandler(coord)))))
	s.url = url
	return s, nil
}

// newCoordinator builds a coordinator whose backends are wrapped in the
// tracer's timing decorator.
func newCoordinator(bases []int, backends []shard.Backend, tr *tracer) (*shard.Coordinator, error) {
	mp, err := shard.NewMap(bases)
	if err != nil {
		return nil, err
	}
	wrapped := make([]shard.Backend, len(backends))
	for i, b := range backends {
		wrapped[i] = tracedBackend{b, tr}
	}
	return shard.New(mp, wrapped, shard.Config{MaxRetries: shardRetries})
}
