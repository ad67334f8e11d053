// Command dfsbench is the repository's end-to-end benchmark of dfsd. It
// starts dfsd servers (internal/serve) on loopback listeners inside this
// process, drives them over HTTP with a closed-loop client through a fixed job
// list drawn from --seed, checks every result, and prints each end-to-end
// metric with its unit. With --trace 1 it repeats the timed window through
// daemons that trace into memory and prints the per-layer metrics instead.
//
//	dfsbench --workload cold-jobs --seed 1 --seconds 30 --trace 0
//	dfsbench steady --workload fanout-cold --runs 10 --seconds 30
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Run it through run.sh from the repository root; README.md describes the
// workloads, the metrics and the reference figures.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/declarative-fs/dfs/internal/serve"
)

// runBudget bounds one invocation; the result must be printed well inside
// three minutes.
const runBudget = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fl := flag.NewFlagSet("dfsbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: cold-jobs, fanout-cold")
	seed := fl.Uint64("seed", 1, "workload seed; the same seed gives the same job list")
	seconds := fl.Int("seconds", 30, "sizes the job list: each workload runs a fixed number of jobs per second of it")
	trace := fl.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	out := fl.String("out", ".bench_build", "directory for scratch data, result files and traces")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	nproc := runtime.NumCPU()
	var w *workload
	for _, c := range workloads(nproc) {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "dfsbench: need --workload cold-jobs|fanout-cold, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(filepath.Join(*out, "work"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dfsbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(filepath.Join(*out, "work"), w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfsbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, work: work, nproc: nproc}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	res, err := w.run(ctx, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfsbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(os.Stdout, w, p, res, *out); err != nil {
		fmt.Fprintln(os.Stderr, "dfsbench:", err)
		return 1
	}
	return 0
}

// conditions are what a result ran under; results are compared only
// against runs made under the same ones.
type conditions struct {
	Workload     string          `json:"workload"`
	Seed         uint64          `json:"seed"`
	Seconds      int             `json:"seconds"`
	Trace        bool            `json:"trace"`
	NumCPU       int             `json:"nproc"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	CPU          string          `json:"cpu"`
	GoVersion    string          `json:"go_version"`
	Commit       string          `json:"commit"`
	SourceSHA256 string          `json:"source_sha256"`
	Daemons      []daemonSpec    `json:"daemons"`
	JobsPerPass  int             `json:"jobs_per_window"`
	Specs        []serve.JobSpec `json:"distinct_specs"`
	Setups       int             `json:"setups"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the checkout
// was a git work tree.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root, so runs
// of checkouts without git metadata are still tied to their code.
func sourceDigest(root, skip string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path == skip || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func report(stdout io.Writer, w *workload, p params, res *runResult, out string) error {
	cond := conditions{
		Workload: w.name, Seed: p.seed, Seconds: p.seconds, Trace: p.trace,
		NumCPU: p.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		GoVersion: runtime.Version(), Commit: commit(), SourceSHA256: sourceDigest(".", filepath.Clean(out)),
		Daemons: w.daemons, JobsPerPass: res.list, Specs: res.specs, Setups: setups,
	}
	condJSON, err := json.Marshal(cond)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dfsbench %s (%s): seed %d, %d jobs per timed window, one client\n", w.name, w.why, p.seed, res.list)
	fmt.Fprintf(stdout, "conditions %s\n", condJSON)

	setup := make([]float64, len(res.setup))
	for i, d := range res.setup {
		setup[i] = d.Seconds()
	}
	e2e := endToEnd(setup, res.rss, &res.untraced)
	fmt.Fprintln(stdout, "end-to-end (untraced):")
	for _, m := range e2e {
		fmt.Fprintf(stdout, "  %-24s %12.6g %s\n", m.name, m.value, m.unit)
	}
	lat, _, _ := jobSeconds(res.untraced.jobs)
	p90, hasP90 := percentile(lat, 0.9)
	if hasP90 {
		fmt.Fprintf(stdout, "  %-24s %12.6g s (%d jobs)\n", "job_p90_s", p90, len(lat))
	} else {
		fmt.Fprintf(stdout, "  job_p90_s not reported: %d jobs, fewer than %d\n", len(lat), tailMinSamples)
	}

	attempted, failed := 0, 0
	passes := []*usage{&res.untraced}
	if res.traced != nil {
		passes = append(passes, res.traced)
	}
	for _, u := range passes {
		for i := range u.jobs {
			attempted++
			if !u.jobs[i].done() {
				failed++
				fmt.Fprintf(stdout, "  job %q failed: %v\n", u.jobs[i].id, u.jobs[i].err)
			}
		}
	}
	c := &res.checks
	fmt.Fprintf(stdout, "jobs: attempted %d, failed %d\n", attempted, failed)
	fmt.Fprintf(stdout, "checks: records re-checked %d, satisfied results re-checked %d, jobs byte-identical to a cold library build %d, /metrics snapshots with invariants checked %d\n",
		c.records, c.satisfied, c.identical, c.invariant)
	for _, e := range c.empty() {
		fmt.Fprintf(stdout, "  check failed: %s\n", e)
	}
	for _, f := range c.failures {
		fmt.Fprintf(stdout, "  check failed: %s\n", f)
	}

	final := result{Correct: c.ok(), Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range e2e {
		final.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	record := map[string]any{"conditions": cond, "end_to_end": final.Metrics, "checks": c.failures}
	if hasP90 {
		record["job_p90_s"] = p90
	}

	if res.traced != nil {
		rep, err := perLayer(res.traced, res.trace.snapshot(), res.trace.t0)
		if err != nil {
			return err
		}
		layers := map[string]jsonMetric{}
		fmt.Fprintln(stdout, "per-layer (traced pass):")
		for _, m := range rep.metrics {
			fmt.Fprintf(stdout, "  %-34s %12.6g %s\n", m.name, m.value, m.unit)
			layers[m.name] = jsonMetric{m.value, m.unit}
		}
		fmt.Fprintf(stdout, "unattributed share of job wall time: median %.4f over %d jobs\n", median(rep.unattributed), len(rep.unattributed))
		fmt.Fprintln(stdout, "tracing overhead (traced pass against the untraced one):")
		traced := endToEnd(setup, res.rss, res.traced)
		for i, m := range traced {
			if m.name == "setup_s" || m.name == "peak_rss_mb" {
				continue
			}
			fmt.Fprintf(stdout, "  %-24s untraced %12.6g, traced %12.6g %s (%+.1f%%)\n",
				m.name, e2e[i].value, m.value, m.unit, 100*(ratio(m.value, e2e[i].value)-1))
		}
		if rep.breakdown != nil {
			fmt.Fprintf(stdout, "self time by layer of job %s (s):\n", rep.breakdownJob)
			for _, k := range sortedKeys(rep.breakdown) {
				fmt.Fprintf(stdout, "  %-26s %10.6f\n", k, rep.breakdown[k])
			}
		}
		tracePath := filepath.Join(out, "results", fmt.Sprintf("%s-seed%d.trace.jsonl", w.name, p.seed))
		if err := writeFile(tracePath, res.trace.snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", tracePath)
		record["per_layer"] = layers
		final.Metrics = layers
	}

	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	traceFlag := 0
	if p.trace {
		traceFlag = 1
	}
	if err := writeFile(filepath.Join(out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, p.seed, traceFlag)), data); err != nil {
		return err
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
