package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/declarative-fs/dfs/internal/core"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// jobSeconds returns, over the done jobs, the end-to-end and first-row
// latencies in seconds and the scenarios delivered.
func jobSeconds(jobs []jobRun) (e2e, first []float64, scenarios int) {
	for i := range jobs {
		if !jobs[i].done() {
			continue
		}
		e2e = append(e2e, jobs[i].lastByte.Seconds())
		first = append(first, jobs[i].firstRow.Seconds())
		scenarios += jobs[i].spec.Scenarios
	}
	return e2e, first, scenarios
}

// perScenario returns CPU seconds and heap MB per scenario: the median over
// done jobs of each job's own share, which a few scenarios costing many
// times the rest cannot drag.
func perScenario(u *usage) (cpu, alloc float64) {
	var cpus, allocs []float64
	for i := range u.jobs {
		j := &u.jobs[i]
		if !j.done() {
			continue
		}
		n := float64(j.spec.Scenarios)
		cpus = append(cpus, j.cpu.Seconds()/n)
		allocs = append(allocs, float64(j.alloc)/1e6/n)
	}
	return median(cpus), median(allocs)
}

// endToEnd computes the user-visible metrics of one timed pass. setup and
// rss are the run's; everything else comes from u.
func endToEnd(setup []float64, rss int64, u *usage) []metric {
	e2e, first, scen := jobSeconds(u.jobs)
	cpu, alloc := perScenario(u)
	return []metric{
		{"setup_s", "s", median(setup)},
		{"job_p50_s", "s", median(e2e)},
		{"first_row_p50_s", "s", median(first)},
		{"scenarios_per_s", "1/s", float64(scen) / u.wall.Seconds()},
		{"cpu_s_per_scenario", "s", cpu},
		{"alloc_mb_per_scenario", "MB", alloc},
		{"peak_rss_mb", "MiB", float64(rss) / (1 << 20)},
	}
}

// traceSpan is one span of the in-memory trace: the program's own (job,
// pool, scenario, strategy_run) and the benchmark's (bench.*).
type traceSpan struct {
	id, parent uint64
	name       string
	start, end int64 // ns since the tracer started; end < 0 while open
	job        string
	role       string
	strategy   string
	children   []*traceSpan
	trainings  []interval // eval events that trained, as [ts-wall, ts]
}

func (s *traceSpan) iv() interval { return interval{s.start, s.end} }

// traceLine is the subset of a trace record the analysis reads.
type traceLine struct {
	T        string  `json:"t"`
	ID       uint64  `json:"id"`
	Span     uint64  `json:"span"`
	Parent   uint64  `json:"parent"`
	Name     string  `json:"name"`
	TS       int64   `json:"ts"`
	Job      string  `json:"job"`
	Role     string  `json:"role"`
	Strategy string  `json:"strategy"`
	WallS    float64 `json:"wall_s"`
	Memo     string  `json:"memo"`
}

// spanTree is a parsed trace.
type spanTree struct {
	byID    map[uint64]*traceSpan
	order   []*traceSpan // by start line
	windows []interval   // spans are analysed only when they start in one
}

func parseTrace(data []byte, windows []interval) (*spanTree, error) {
	t := &spanTree{byID: map[uint64]*traceSpan{}, windows: windows}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var ln traceLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return nil, fmt.Errorf("trace line %q: %w", sc.Text(), err)
		}
		switch ln.T {
		case "start":
			s := &traceSpan{id: ln.ID, parent: ln.Parent, name: ln.Name, start: ln.TS, end: -1,
				job: ln.Job, role: ln.Role, strategy: ln.Strategy}
			t.byID[ln.ID] = s
			t.order = append(t.order, s)
		case "end":
			if s := t.byID[ln.ID]; s != nil {
				s.end = ln.TS
				if ln.Job != "" {
					s.job = ln.Job
				}
			}
		case "event":
			if s := t.byID[ln.Span]; s != nil && ln.Name == "eval" && ln.WallS > 0 {
				s.trainings = append(s.trainings, interval{ln.TS - int64(math.Round(ln.WallS*1e9)), ln.TS})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, s := range t.order {
		if p := t.byID[s.parent]; p != nil && s.parent != 0 {
			p.children = append(p.children, s)
		}
	}
	// The checkpoint sink has no context, so its spans parent to the build;
	// they run inside the build's pool span, under which they belong.
	for _, b := range t.order {
		if b.name != "bench.build" {
			continue
		}
		var pool *traceSpan
		var rest []*traceSpan
		for _, c := range b.children {
			if c.name == "pool" {
				pool = c
			}
		}
		if pool == nil {
			continue
		}
		for _, c := range b.children {
			if c.name == "bench.checkpoint_append" {
				pool.children = append(pool.children, c)
			} else {
				rest = append(rest, c)
			}
		}
		b.children = rest
	}
	return t, nil
}

// named lists the finished spans called name that started in a timed
// window.
func (t *spanTree) named(name string) []*traceSpan {
	var out []*traceSpan
	for _, s := range t.order {
		if s.name != name || s.end < 0 {
			continue
		}
		for _, w := range t.windows {
			if s.start >= w.start && s.start < w.end {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// linkJobs attaches each client-side bench.job span to the daemon's job
// span it created: the one with the same ID admitted during its submit.
// Worker daemons of a fan-out number their shard jobs in their own ID space,
// so the admission time disambiguates. The client's submit and stream read
// overlap the daemon's job span; for attribution the submit keeps the time up
// to admission and the stream read the tail after the job span ended.
func (t *spanTree) linkJobs() {
	progJobs := t.named("job")
	for _, root := range t.named("bench.job") {
		var submit, stream *traceSpan
		for _, c := range root.children {
			switch c.name {
			case "bench.submit":
				submit = c
			case "bench.stream":
				stream = c
			}
		}
		if submit == nil {
			continue
		}
		for _, pj := range progJobs {
			if pj.job == root.job && pj.start >= submit.start && pj.start <= submit.end {
				root.children = append(root.children, pj)
				submit.end = min(submit.end, pj.start)
				if stream != nil && stream.start < pj.end {
					stream.start = min(pj.end, stream.end)
				}
				break
			}
		}
	}
}

func childIntervals(s *traceSpan) []interval {
	ivs := make([]interval, 0, len(s.children)+len(s.trainings))
	for _, c := range s.children {
		if c.end >= 0 {
			ivs = append(ivs, c.iv())
		}
	}
	return append(ivs, s.trainings...)
}

// selfByLayer sums the self time of every span under root by span name;
// trainings count as "train". The root's own self time is the part of the
// job no layer accounts for.
func selfByLayer(root *traceSpan) map[string]float64 {
	out := map[string]float64{}
	var walk func(s *traceSpan)
	walk = func(s *traceSpan) {
		if s.end < 0 {
			return
		}
		out[s.name] += float64(selfTime(s.iv(), childIntervals(s))) / 1e9
		for _, tr := range s.trainings {
			out["train"] += float64(tr.end-tr.start) / 1e9
		}
		for _, c := range s.children {
			walk(c)
		}
	}
	walk(root)
	return out
}

// metricName reduces a strategy name to the characters metric names allow:
// "TPE(Chi2)" becomes "TPE-Chi2".
func metricName(s string) string {
	s = strings.ReplaceAll(s, "(", "-")
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			b.WriteRune(r)
		case r == ')':
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// strategyMetricNames lists every strategy the pool runs, baseline first.
func strategyMetricNames() []string {
	return append([]string{core.OriginalFeaturesName}, core.StrategyNames...)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// durations lists the spans' lengths in seconds.
func durations(spans []*traceSpan) []float64 {
	out := make([]float64, 0, len(spans))
	for _, s := range spans {
		out = append(out, secs(s.end-s.start))
	}
	return out
}

// layerReport is the traced pass's per-layer view.
type layerReport struct {
	metrics      []metric
	unattributed []float64          // per job: root self time / job wall time
	breakdown    map[string]float64 // per-layer self time of one job
	breakdownJob string
}

// perLayer derives the per-layer metrics from the traced pass: the spans the
// benchmark and the program recorded, and the /metrics counter deltas.
func perLayer(u *usage, trace []byte, t0 time.Time) (*layerReport, error) {
	windows := make([]interval, len(u.windows))
	for i, w := range u.windows {
		windows[i] = interval{int64(w[0].Sub(t0)), int64(w[1].Sub(t0))}
	}
	t, err := parseTrace(trace, windows)
	if err != nil {
		return nil, err
	}
	// Taken before linkJobs trims the submits to admission.
	submitDurs := durations(t.named("bench.submit"))
	t.linkJobs()
	rep := &layerReport{}
	add := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.metrics = append(rep.metrics, metric{name, unit, v})
	}
	_, _, scen := jobSeconds(u.jobs)
	cn := func(k string) float64 { return float64(u.counters[k]) }

	// serve: the client's submit, the queue, and the tail from the pool
	// builder's return to the client's last CSV byte.
	var builds, fanoutBuilds []*traceSpan
	for _, b := range t.named("bench.build") {
		if b.role == "fanout" {
			fanoutBuilds = append(fanoutBuilds, b)
		} else {
			builds = append(builds, b)
		}
	}
	var tails []float64
	roots := t.named("bench.job")
	for _, root := range roots {
		for _, c := range root.children {
			if c.name != "job" {
				continue
			}
			for _, b := range c.children {
				if b.name == "bench.build" && b.end >= 0 {
					tails = append(tails, secs(root.end-b.end))
				}
			}
		}
		rep.unattributed = append(rep.unattributed, ratio(float64(selfTime(root.iv(), childIntervals(root))), float64(root.end-root.start)))
	}
	if len(roots) > 0 {
		mid := roots[len(roots)/2]
		rep.breakdown = selfByLayer(mid)
		rep.breakdownJob = mid.job
	}
	var csvBytes int
	for i := range u.jobs {
		csvBytes += len(u.jobs[i].csv)
	}
	qw := u.hist["serve.job.queue_wait_seconds"]
	add("serve.submit_s", "s", median(submitDurs))
	add("serve.queue_wait_s", "s", ratio(qw[1], qw[0]))
	add("serve.tail_s", "s", median(tails))
	add("serve.csv_bytes_per_scenario", "B", ratio(float64(csvBytes), float64(scen)))

	// fan-out: coordinator builds against the worker builds they cover.
	var firsts, overheads []float64
	for _, fb := range fanoutBuilds {
		first := int64(-1)
		for _, c := range fb.children {
			if c.name == "bench.checkpoint_append" && (first < 0 || c.start < first) {
				first = c.start
			}
		}
		if first >= 0 {
			firsts = append(firsts, secs(first-fb.start))
		}
		ivs := make([]interval, 0, len(builds))
		for _, b := range builds {
			ivs = append(ivs, b.iv())
		}
		overheads = append(overheads, secs(selfTime(fb.iv(), ivs)))
	}
	workerBuilds := 0.0
	if len(fanoutBuilds) > 0 {
		workerBuilds = median(durations(builds))
	}
	add("fanout.build_s", "s", median(durations(fanoutBuilds)))
	add("fanout.worker_build_s", "s", workerBuilds)
	add("fanout.first_record_s", "s", median(firsts))
	add("fanout.overhead_s", "s", median(overheads))
	add("fanout.shards_dispatched", "count", cn("serve.fanout.shards_dispatched"))
	add("fanout.records_streamed", "count", cn("serve.fanout.records_streamed"))
	add("fanout.stream_fallbacks", "count", cn("serve.fanout.stream_fallbacks"))
	add("fanout.shards_requeued", "count", cn("serve.fanout.shards_requeued"))

	// bench: pool builds and the checkpoint sink.
	appends := t.named("bench.checkpoint_append")
	add("bench.build_s", "s", median(durations(builds)))
	add("bench.checkpoint_append_s", "s", median(durations(appends)))
	add("bench.checkpoint_appends", "count", float64(len(appends)))
	add("bench.skipped_durable", "count", cn("pool.schedule.skipped_durable"))
	add("bench.scenarios_executed", "count", cn("pool.scenarios_executed"))

	// core: evaluator and memo.
	add("core.trainings", "count", cn("evals.trained"))
	add("core.replayed", "count", cn("evals.replayed"))
	add("core.pruned", "count", cn("evals.pruned"))
	add("core.memo_lookups", "count", cn("memo.lookups"))
	add("core.memo_hit_ratio", "ratio", ratio(cn("memo.hits"), cn("memo.lookups")))
	add("core.memo_waits", "count", cn("memo.waits"))
	// Mean seconds per training (fit + score + attack) by model family,
	// summed over every daemon; DP variants share their family's histogram.
	for _, kind := range []string{"LR", "NB", "DT"} {
		var n, sum float64
		for k, h := range u.histAll {
			if strings.HasPrefix(k, "train.seconds."+kind) {
				n += h[0]
				sum += h[1]
			}
		}
		add("core.train_s."+kind, "s", ratio(sum, n))
	}

	// search: strategy runs, and their time not covered by training.
	runs := t.named("strategy_run")
	byStrategy := map[string][]float64{}
	var selfs []float64
	for _, r := range runs {
		d := secs(r.end - r.start)
		byStrategy[r.strategy] = append(byStrategy[r.strategy], d)
		selfs = append(selfs, secs(selfTime(r.iv(), r.trainings)))
	}
	for _, name := range strategyMetricNames() {
		add("search.run_s."+metricName(name), "s", mean(byStrategy[name]))
	}
	add("search.self_s", "s", mean(selfs))

	// evalstore.
	lookups := cn("evalstore.lookups")
	add("evalstore.lookups", "count", lookups)
	add("evalstore.hits_mem", "count", cn("evalstore.hits_mem"))
	add("evalstore.hits_disk", "count", cn("evalstore.hits_disk"))
	add("evalstore.misses", "count", cn("evalstore.misses"))
	add("evalstore.hit_ratio", "ratio", ratio(cn("evalstore.hits_mem")+cn("evalstore.hits_disk"), lookups))
	add("evalstore.wal_mb", "MB", cn("evalstore.wal_bytes")/1e6)
	add("evalstore.entries", "count", float64(u.gauges["evalstore.entries"]))
	add("evalstore.segments", "count", float64(u.gauges["evalstore.segments"]))
	add("evalstore.compactions", "count", cn("evalstore.compactions"))
	add("evalstore.open_s", "s", median(u.opens))

	// Go runtime of the process running the daemons.
	add("runtime.gc_count", "count", float64(u.numGC))
	add("runtime.gc_pause_s", "s", float64(u.pauseNs)/1e9)
	add("runtime.gc_cpu_frac", "ratio", ratio(u.gcCPU, u.allCPU))

	add("trace.unattributed_frac", "ratio", median(rep.unattributed))
	return rep, nil
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
