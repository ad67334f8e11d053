package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/serve"
	"github.com/declarative-fs/dfs/internal/synth"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// workload is one traffic mix. Sizes are fixed per run: the job list is a
// function of the seed and --seconds only, never of how fast the host is.
type workload struct {
	name    string
	why     string
	daemons []daemonSpec
	// distinct is the number of distinct job specs; the timed list repeats
	// them in whole rounds.
	distinct int
	// candidate draws the spec at position i of the distinct list from r.
	candidate func(r *xrand.RNG, i int) serve.JobSpec
	// jobsPerSecond sizes the timed list: jobs per second of --seconds.
	jobsPerSecond float64
	// store: the daemons share one evaluation store, empty at every set-up
	// and at the traced pass. Every timed spec is distinct, so every timed
	// job trains and writes it.
	store bool
}

const (
	// setups is how many times a run sets up from scratch; setup_s is the
	// median.
	setups = 3
	// maxEvals is every job's evaluation budget per strategy run: the budget
	// of the documented dfsd jobs (README quickstarts, CI smoke specs).
	maxEvals = 15
	// specSeed fixes the pool seeds of every workload's distinct specs; see
	// distinctSpecs.
	specSeed = 1
)

// warmupSpec is the untimed job every fleet runs at the end of set-up, so
// lazy set-up (connections, first-use allocations) is done.
var warmupSpec = serve.JobSpec{Scenarios: 1, Seed: 7, MaxEvals: maxEvals, Datasets: []string{"COMPAS"}}

func poolSeed(r *xrand.RNG) uint64 { return 1 + r.Uint64()%1_000_000 }

func workloads(nproc int) []*workload {
	datasets := synth.Names()
	// Both workloads keep concurrent compute at nproc: one job at a time,
	// its strategies on nproc slots (cold-jobs) or its shards on two
	// workers of nproc/2 slots each (fanout-cold).
	half := max(1, nproc/2)
	return []*workload{
		{
			name:    "cold-jobs",
			why:     "sequential cold jobs writing an empty store: model fit, scoring, rankings and search do the work",
			daemons: []daemonSpec{{Workers: 1, PoolWorkers: nproc, Store: true}},
			// Every job is one scenario of its own dataset profile, every
			// other profile with HPO, so default and HPO jobs mix as Table 3
			// compares them. One scenario per job makes every job a sample
			// of first_row_p50_s.
			distinct: len(datasets),
			candidate: func(r *xrand.RNG, i int) serve.JobSpec {
				return serve.JobSpec{Scenarios: 1, Seed: poolSeed(r), MaxEvals: maxEvals, HPO: i%2 == 1,
					Datasets: []string{datasets[i]}}
			},
			// One round of 19 jobs per 30 s of --seconds.
			jobsPerSecond: 19.0 / 30,
			store:         true,
		},
		{
			name: "fanout-cold",
			why:  "one cold four-scenario job resubmitted, split by a coordinator into one shard per worker over two workers",
			daemons: []daemonSpec{
				{Workers: 1, PoolWorkers: half},
				{Workers: 1, PoolWorkers: half},
				{Workers: 1, PoolWorkers: 1, Coordinator: true, ShardsPerWorker: 1},
			},
			// One shard per worker: each worker claims one of the two shards,
			// so which scenarios run together is the same in every job.
			// Without a store every resubmission trains again and every job
			// does the same work, so the medians rest on every job of the
			// window, not on the one or two whose cost sits in the middle of
			// a mix.
			distinct: 1,
			candidate: func(r *xrand.RNG, i int) serve.JobSpec {
				return serve.JobSpec{Scenarios: 4, Seed: poolSeed(r), MaxEvals: maxEvals}
			},
			jobsPerSecond: 0.5,
		},
	}
}

// rng derives a stream of the workload from seed.
func (w *workload) rng(seed uint64) *xrand.RNG {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	return xrand.NewStream(seed, h.Sum64())
}

// distinctSpecs draws the workload's distinct specs. Their pool seeds come
// from specSeed, not from --seed: a cold scenario's cost follows its draw,
// and the few dozen cold scenarios a run can afford would carry that draw
// into every metric (README.md, "Workloads").
func (w *workload) distinctSpecs() []serve.JobSpec {
	r := w.rng(specSeed)
	specs := make([]serve.JobSpec, w.distinct)
	for i := range specs {
		specs[i] = w.candidate(r, i)
	}
	return specs
}

// timedList is the fixed job list of one timed window: the distinct specs
// in whole rounds, each round in an order drawn from r.
func (w *workload) timedList(specs []serve.JobSpec, seconds int, r *xrand.RNG) []serve.JobSpec {
	rounds := int(float64(seconds)*w.jobsPerSecond/float64(len(specs)) + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	list := make([]serve.JobSpec, 0, rounds*len(specs))
	for i := 0; i < rounds; i++ {
		for _, j := range r.Perm(len(specs)) {
			list = append(list, specs[j])
		}
	}
	return list
}

// benchConfig is the library configuration of a job spec, as dfsd maps it
// (every workload's jobs run in satisfaction mode).
func benchConfig(spec serve.JobSpec, workers int) bench.Config {
	return bench.Config{
		Mode:      core.ModeSatisfy,
		Scenarios: spec.Scenarios,
		Seed:      spec.Seed,
		HPO:       spec.HPO,
		MaxEvals:  spec.MaxEvals,
		Datasets:  spec.Datasets,
		Workers:   workers,
	}
}

// buildReference builds spec cold through the library: bench.BuildPool with
// no daemon, store or fan-out.
func buildReference(spec serve.JobSpec, workers int) (*reference, error) {
	p, err := bench.BuildPool(benchConfig(spec, workers))
	if err != nil {
		return nil, err
	}
	return newReference(p)
}

// referenceFirstDone makes sure the window's jobs are compared with at least
// one cold library build: unless a done job's spec already has one, it
// builds the reference of the first job that ended done.
func referenceFirstDone(jobs []jobRun, refs map[string]*reference, workers int) error {
	first := -1
	for i := range jobs {
		if !jobs[i].done() {
			continue
		}
		if refs[specKey(jobs[i].spec)] != nil {
			return nil
		}
		if first < 0 {
			first = i
		}
	}
	if first < 0 {
		return nil // every job failed; counted as failed
	}
	ref, err := buildReference(jobs[first].spec, workers)
	if err != nil {
		return fmt.Errorf("reference build of seed %d: %w", jobs[first].spec.Seed, err)
	}
	refs[specKey(jobs[first].spec)] = ref
	return nil
}

// procSample is the process-wide resource use at one instant.
type procSample struct {
	cpu     time.Duration
	alloc   uint64
	numGC   uint32
	pauseNs uint64
	gcCPU   float64 // runtime/metrics GC CPU seconds
	allCPU  float64 // runtime/metrics total CPU seconds
}

var gcMetricNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleProc() (procSample, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, err := cpuTime()
	if err != nil {
		return procSample{}, err
	}
	rm := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		rm[i].Name = n
	}
	metrics.Read(rm)
	s := procSample{cpu: cpu, alloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
	if rm[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = rm[0].Value.Float64()
	}
	if rm[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = rm[1].Value.Float64()
	}
	return s, nil
}

// usage accumulates resource deltas over timed windows.
type usage struct {
	wall     time.Duration
	numGC    uint32
	pauseNs  uint64
	gcCPU    float64
	allCPU   float64
	jobs     []jobRun
	counters map[string]int64      // /metrics counter deltas, summed over daemons
	hist     map[string][2]float64 // entry daemon histogram deltas: count, sum
	histAll  map[string][2]float64 // the same, summed over every daemon
	gauges   map[string]int64      // last value, max over daemons
	opens    []float64             // timed evaluation-store opens (traced)
	windows  [][2]time.Time        // start and end of each timed window
}

func (u *usage) add(a, b procSample, start time.Time, wall time.Duration, jobs []jobRun) {
	u.wall += wall
	u.windows = append(u.windows, [2]time.Time{start, start.Add(wall)})
	u.numGC += b.numGC - a.numGC
	u.pauseNs += b.pauseNs - a.pauseNs
	u.gcCPU += b.gcCPU - a.gcCPU
	u.allCPU += b.allCPU - a.allCPU
	u.jobs = append(u.jobs, jobs...)
}

// addScrapes folds the /metrics snapshots taken before and after a window.
func (u *usage) addScrapes(before, after []snapshot) {
	if u.counters == nil {
		u.counters = map[string]int64{}
		u.hist = map[string][2]float64{}
		u.histAll = map[string][2]float64{}
		u.gauges = map[string]int64{}
	}
	for i := range after {
		for k, v := range after[i].Counters {
			u.counters[k] += v - before[i].Counters[k]
		}
		for k, v := range after[i].Gauges {
			if i == 0 || v > u.gauges[k] {
				u.gauges[k] = v
			}
		}
	}
	entry := len(after) - 1
	for i := range after {
		for k, h := range after[i].Histograms {
			b := before[i].Histograms[k]
			d := [2]float64{float64(h.Count - b.Count), h.Sum - b.Sum}
			u.histAll[k] = [2]float64{u.histAll[k][0] + d[0], u.histAll[k][1] + d[1]}
			if i == entry {
				u.hist[k] = [2]float64{u.hist[k][0] + d[0], u.hist[k][1] + d[1]}
			}
		}
	}
}

// runList runs the list through the fleet's entry daemon with one
// closed-loop client: each job is submitted after the previous one's result
// stream ended. No two jobs overlap, so each one's CPU and allocation are
// sampled too.
func runList(ctx context.Context, cl *client, base string, list []serve.JobSpec, tr *obs.Tracer) ([]jobRun, error) {
	out := make([]jobRun, len(list))
	for i := range list {
		a, err := sampleProc()
		if err != nil {
			return nil, err
		}
		out[i] = cl.runJob(ctx, base, list[i], tr)
		b, err := sampleProc()
		if err != nil {
			return nil, err
		}
		out[i].cpu, out[i].alloc = b.cpu-a.cpu, b.alloc-a.alloc
	}
	return out, nil
}

// measure runs one timed window and folds its resource use into u.
func measure(ctx context.Context, cl *client, f *fleet, list []serve.JobSpec, tr *obs.Tracer, u *usage, c *checks) error {
	before, err := f.scrape(ctx, cl)
	if err != nil {
		return err
	}
	a, err := sampleProc()
	if err != nil {
		return err
	}
	t0 := time.Now()
	jobs, err := runList(ctx, cl, f.entry, list, tr)
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	b, err := sampleProc()
	if err != nil {
		return err
	}
	u.add(a, b, t0, wall, jobs)
	after, err := f.quiesce(ctx, cl, c)
	if err != nil {
		return err
	}
	u.addScrapes(before, after)
	return nil
}
