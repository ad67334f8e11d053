package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/serve"
)

// daemonSpec is the operator side of one dfsd server: its settings are what
// keep concurrent compute within the machine (jobs in flight × PoolWorkers).
type daemonSpec struct {
	Workers     int  `json:"workers"`
	PoolWorkers int  `json:"pool_workers"`
	Store       bool `json:"store"`
	// Coordinator fans every job out across the fleet's other daemons.
	Coordinator     bool `json:"coordinator,omitempty"`
	ShardsPerWorker int  `json:"shards_per_worker,omitempty"`
}

// fleet is a set of dfsd servers running in this process on loopback
// listeners. The entry daemon (the coordinator, if any) takes the jobs.
type fleet struct {
	servers []*serve.Server
	urls    []string
	entry   string
}

// startFleet starts one server per spec, workers before the coordinator,
// and waits until every one answers /healthz. dir holds the job
// directories; store is the shared evaluation store ("" for none). With tr
// set, every server traces into the benchmark's in-memory sink and runs its
// pool builds through the timing wrapper.
func startFleet(ctx context.Context, cl *client, dir, store string, specs []daemonSpec, tr *tracedSinks) (*fleet, error) {
	f := &fleet{}
	var workers []string
	for i, sp := range specs {
		cfg := serve.Config{
			Dir:         filepath.Join(dir, fmt.Sprintf("daemon-%d", i)),
			Workers:     sp.Workers,
			PoolWorkers: sp.PoolWorkers,
		}
		if sp.Store {
			cfg.EvalStore = store
		}
		var build serve.PoolBuilder = bench.BuildPoolResumed
		role := "bench"
		if sp.Coordinator {
			fo := &serve.Fanout{
				Workers:         workers,
				SpoolDir:        filepath.Join(dir, fmt.Sprintf("daemon-%d-spool", i)),
				ShardsPerWorker: sp.ShardsPerWorker,
			}
			build, role = fo.BuildPool, "fanout"
		}
		if tr != nil {
			cfg.TraceBroadcast = obs.NewBroadcastSink(0)
			tr.add(cfg.TraceBroadcast)
			cfg.Obs = obs.New(obs.WithTracer(tr.tracer))
			build = tr.wrapBuilder(build, role)
		}
		if sp.Coordinator || tr != nil {
			cfg.BuildPool = build
		}
		srv, err := serve.New(cfg)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			f.stop()
			return nil, err
		}
		url := "http://" + srv.Addr()
		f.urls = append(f.urls, url)
		if !sp.Coordinator {
			workers = append(workers, url)
		}
		f.entry = url
	}
	for _, u := range f.urls {
		if err := cl.waitHealthy(ctx, u); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// stop drains every server, the entry daemon first so nothing dispatches to
// a worker that is already gone.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var errs []error
	for i := len(f.servers) - 1; i >= 0; i-- {
		if err := f.servers[i].Drain(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	f.servers = nil
	return errors.Join(errs...)
}

// scrape takes one /metrics snapshot per daemon.
func (f *fleet) scrape(ctx context.Context, cl *client) ([]snapshot, error) {
	out := make([]snapshot, len(f.urls))
	for i, u := range f.urls {
		s, err := cl.metrics(ctx, u)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// quiesce waits until no daemon has a job queued or running, then checks
// each final snapshot's counter invariants.
func (f *fleet) quiesce(ctx context.Context, cl *client, c *checks) ([]snapshot, error) {
	out := make([]snapshot, len(f.urls))
	for i, u := range f.urls {
		s, err := cl.waitQuiesce(ctx, u)
		if err != nil {
			return nil, err
		}
		c.checkInvariants(fmt.Sprintf("daemon %d", i), s)
		out[i] = s
	}
	return out, nil
}

// tracedSinks is the traced run's addition to the program: one tracer for
// every server of the run, teeing each line into an in-memory buffer and
// into the servers' own broadcast sinks (which back GET /jobs/{id}/events,
// exactly as dfsd wires them).
type tracedSinks struct {
	tracer *obs.Tracer
	t0     time.Time // tracer creation; span ts values are offsets from it

	mu    sync.Mutex
	lines []byte
	bcast []*obs.BroadcastSink
}

func newTracedSinks() *tracedSinks {
	ts := &tracedSinks{}
	ts.t0 = time.Now()
	ts.tracer = obs.NewTracer(ts)
	return ts
}

// Emit implements obs.Sink.
func (ts *tracedSinks) Emit(line []byte) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.lines = append(ts.lines, line...)
	for _, b := range ts.bcast {
		_ = b.Emit(line) // never fails; a closed sink drops the line
	}
	return nil
}

func (ts *tracedSinks) add(b *obs.BroadcastSink) {
	ts.mu.Lock()
	ts.bcast = append(ts.bcast, b)
	ts.mu.Unlock()
}

func (ts *tracedSinks) snapshot() []byte {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]byte(nil), ts.lines...)
}

// wrapBuilder times one pool build (span "bench.build", parenting the
// program's pool span) and every record it appends to the job's checkpoint
// sink (span "bench.checkpoint_append").
func (ts *tracedSinks) wrapBuilder(inner serve.PoolBuilder, role string) serve.PoolBuilder {
	return func(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error) {
		span := ts.tracer.StartSpan(obs.SpanFromContext(ctx), "bench.build",
			obs.Str("job", cfg.Label), obs.Str("role", role))
		if opts.Sink != nil {
			opts.Sink = &timedSink{inner: opts.Sink, tracer: ts.tracer, parent: span}
		}
		p, err := inner(obs.ContextWithSpan(ctx, span), cfg, opts)
		ts.tracer.EndSpan(span)
		return p, err
	}
}

// timedSink wraps the daemon's checkpoint sink.
type timedSink struct {
	inner  bench.RecordSink
	tracer *obs.Tracer
	parent obs.SpanID
}

func (s *timedSink) Append(rec *bench.Record) error {
	span := s.tracer.StartSpan(s.parent, "bench.checkpoint_append")
	err := s.inner.Append(rec)
	s.tracer.EndSpan(span)
	return err
}

// copyDir copies the regular files of src into a new directory dst (the
// evaluation store is one flat directory of segments and lock files).
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
