package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"github.com/declarative-fs/dfs/internal/evalstore"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/serve"
)

// params are one invocation's settings.
type params struct {
	seed    uint64
	seconds int
	trace   bool
	work    string // scratch directory, removed afterwards
	nproc   int
}

// runResult is everything one run measured and checked.
type runResult struct {
	specs    []serve.JobSpec // distinct specs of the timed list
	list     int             // jobs per timed window
	setup    []time.Duration
	untraced usage
	traced   *usage
	trace    *tracedSinks
	rss      int64 // VmHWM at the end of the untraced window
	checks   checks
}

// specKey identifies a spec: its wire form.
func specKey(s serve.JobSpec) string {
	b, _ := json.Marshal(s) // a JobSpec always encodes
	return string(b)
}

// run executes the workload: set-up (several times), the untraced timed
// window, and with p.trace the traced one. Every check, and the reference
// build each window's jobs are compared with, runs outside the timed
// windows.
func (w *workload) run(ctx context.Context, p params) (*runResult, error) {
	res := &runResult{}
	cl := newClient()
	defer cl.close()

	// Inputs: the distinct specs, and the timed list's order from the seed.
	// The first job of each window that ends done is built cold by the
	// library after the window, as its reference.
	res.specs = w.distinctSpecs()
	list := w.timedList(res.specs, p.seconds, w.rng(p.seed))
	res.list = len(list)
	refs := map[string]*reference{}

	// Set-up, repeated: start the daemons on an empty store, run the warm-up
	// job. The last one's fleet is what gets timed.
	var f *fleet
	var store string
	for i := 0; i < setups; i++ {
		dir := filepath.Join(p.work, fmt.Sprintf("setup-%d", i))
		if w.store {
			store = filepath.Join(dir, "store")
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(ctx, cl, filepath.Join(dir, "jobs"), store, w.daemons, nil); err != nil {
			return nil, err
		}
		if run := cl.runJob(ctx, f.entry, warmupSpec, nil); !run.done() {
			f.stop()
			return nil, fmt.Errorf("warm-up job: %v", run.err)
		}
		res.setup = append(res.setup, time.Since(t0))
		if i < setups-1 {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
	}

	err := w.window(ctx, cl, f, list, refs, p.nproc, nil, &res.untraced, &res.checks)
	if err != nil {
		return nil, err
	}
	if res.rss, err = peakRSS(); err != nil {
		return nil, err
	}
	if !p.trace {
		return res, nil
	}

	// The traced pass: the same job list through fresh daemons (on an empty
	// store) that trace into memory and time their pool builds and
	// checkpoint appends. The store the untraced window filled is what a
	// restarted daemon would open; opening a copy of it is timed.
	res.trace = newTracedSinks()
	res.traced = &usage{}
	if store != "" {
		if err := timeStoreOpen(store, filepath.Join(p.work, "traced", "open"), res.traced); err != nil {
			return nil, err
		}
		store = filepath.Join(p.work, "traced", "store")
	}
	if f, err = startFleet(ctx, cl, filepath.Join(p.work, "traced", "jobs"), store, w.daemons, res.trace); err != nil {
		return nil, err
	}
	if run := cl.runJob(ctx, f.entry, warmupSpec, nil); !run.done() {
		f.stop()
		return nil, fmt.Errorf("warm-up job: %v", run.err)
	}
	err = w.window(ctx, cl, f, list, refs, p.nproc, res.trace.tracer, res.traced, &res.checks)
	return res, err
}

// window times the list on a running fleet, checks every job, and stops the
// fleet.
func (w *workload) window(ctx context.Context, cl *client, f *fleet, list []serve.JobSpec, refs map[string]*reference, workers int, tr *obs.Tracer, u *usage, c *checks) error {
	first := len(u.jobs)
	err := measure(ctx, cl, f, list, tr, u, c)
	if err == nil {
		err = referenceFirstDone(u.jobs[first:], refs, workers)
	}
	if err == nil {
		err = verify(ctx, cl, f.entry, u.jobs[first:], refs, c)
	}
	if serr := f.stop(); err == nil {
		err = serr
	}
	return err
}

// timeStoreOpen times opening (and closing) a copy of an evaluation store;
// the copy keeps the extra segment an open creates out of the original.
func timeStoreOpen(src, dir string, u *usage) error {
	if err := copyDir(src, dir); err != nil {
		return err
	}
	t0 := time.Now()
	st, err := evalstore.Open(dir, evalstore.Options{})
	if err != nil {
		return err
	}
	u.opens = append(u.opens, time.Since(t0).Seconds())
	return st.Close()
}

// verify checks every timed job: it ended done, its CSV has the right rows,
// its satisfied results hold their constraints, and where a cold library
// build of its spec exists, its CSV and records are byte-identical to it.
func verify(ctx context.Context, cl *client, base string, jobs []jobRun, refs map[string]*reference, c *checks) error {
	for i := range jobs {
		j := &jobs[i]
		if !j.done() {
			continue // counted as failed
		}
		c.checkCSV(j.id, j.csv, j.spec.Scenarios)
		data, err := cl.checkpoint(ctx, base, j.id)
		if err != nil {
			c.failf("%s: checkpoint: %v", j.id, err)
			continue
		}
		recs, err := parseCheckpoint(data)
		if err != nil {
			c.failf("%s: checkpoint: %v", j.id, err)
			continue
		}
		c.recheckAll(j.id, recs)
		if ref := refs[specKey(j.spec)]; ref != nil {
			c.compareToReference(j.id, j.csv, recs, ref)
		}
	}
	return ctx.Err()
}
