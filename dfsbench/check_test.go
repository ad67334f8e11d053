package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/serve"
	"github.com/declarative-fs/dfs/internal/synth"
)

// handRecord is a COMPAS scenario whose constraints are all active, with one
// satisfied strategy result that meets every one of them.
func handRecord(t *testing.T) (bench.Record, int) {
	t.Helper()
	prof, err := synth.ByName("COMPAS")
	if err != nil {
		t.Fatal(err)
	}
	n := prof.Features()
	feats := []int{0, 2}
	return bench.Record{
		ID:      4,
		Dataset: "COMPAS",
		Constraints: constraint.Set{
			MinF1: 0.6, MaxSearchCost: 100, MaxFeatureFrac: 0.5, MinEO: 0.8, MinSafety: 0.7, PrivacyEps: 1,
		},
		Results: map[string]core.RunResult{
			"SFS(NR)": {
				Strategy: "SFS(NR)", Satisfied: true, Features: feats,
				TestScores:     constraint.Scores{F1: 0.6, EO: 0.81, Safety: 0.7, FeatureFrac: float64(len(feats)) / float64(n)},
				CostAtSolution: 40, TotalCost: 40,
			},
			// Unsatisfied results are not re-checked, however bad.
			"SBS(NR)": {Strategy: "SBS(NR)", TestScores: constraint.Scores{F1: 0.1}, CostAtSolution: 500, TotalCost: 1},
		},
	}, n
}

func TestRecheckAcceptsSatisfiedResult(t *testing.T) {
	rec, _ := handRecord(t)
	problems, sat := recheck(&rec)
	if len(problems) != 0 || sat != 1 {
		t.Fatalf("recheck = %v, %d satisfied; want no problems, 1 satisfied", problems, sat)
	}
	// Inactive constraints do not bind: EO and safety at 0 are ignored, and
	// a feature cap of 1 admits every feature.
	rec.Constraints.MinEO, rec.Constraints.MinSafety, rec.Constraints.MaxFeatureFrac = 0, 0, 1
	res := rec.Results["SFS(NR)"]
	res.TestScores.EO, res.TestScores.Safety = 0.1, 0
	rec.Results["SFS(NR)"] = res
	if problems, _ := recheck(&rec); len(problems) != 0 {
		t.Fatalf("inactive constraints flagged: %v", problems)
	}
}

func TestRecheckFlagsEachViolation(t *testing.T) {
	cases := []struct {
		name string
		edit func(res *core.RunResult, c *constraint.Set, n int)
		want string
	}{
		{"f1", func(r *core.RunResult, c *constraint.Set, n int) { r.TestScores.F1 = 0.5999 }, "below MinF1"},
		{"f1 NaN", func(r *core.RunResult, c *constraint.Set, n int) { r.TestScores.F1 = math.NaN() }, "below MinF1"},
		{"eo", func(r *core.RunResult, c *constraint.Set, n int) { r.TestScores.EO = 0.79 }, "below MinEO"},
		{"safety", func(r *core.RunResult, c *constraint.Set, n int) { r.TestScores.Safety = 0.69 }, "below MinSafety"},
		{"feature cap", func(r *core.RunResult, c *constraint.Set, n int) {
			r.Features = nil
			for f := 0; f <= n/2; f++ {
				r.Features = append(r.Features, f)
			}
			r.TestScores.FeatureFrac = float64(len(r.Features)) / float64(n)
		}, "above MaxFeatureFrac"},
		{"feature fraction", func(r *core.RunResult, c *constraint.Set, n int) { r.TestScores.FeatureFrac = 0.1 }, "reported FeatureFrac"},
		{"budget", func(r *core.RunResult, c *constraint.Set, n int) { r.CostAtSolution, r.TotalCost = 101, 101 }, "above MaxSearchCost"},
		{"total cost", func(r *core.RunResult, c *constraint.Set, n int) { r.TotalCost = 39 }, "above total cost"},
	}
	for _, c := range cases {
		rec, n := handRecord(t)
		res := rec.Results["SFS(NR)"]
		c.edit(&res, &rec.Constraints, n)
		rec.Results["SFS(NR)"] = res
		problems, sat := recheck(&rec)
		if sat != 1 || len(problems) != 1 || !strings.Contains(problems[0], c.want) {
			t.Errorf("%s: recheck = %q (%d satisfied), want one problem containing %q", c.name, problems, sat, c.want)
		}
	}
}

func TestChecksNeedASatisfiedResult(t *testing.T) {
	rec, _ := handRecord(t)
	var c checks
	delete(rec.Results, "SFS(NR)")
	c.recheckAll("job-000000", []bench.Record{rec})
	if c.ok() {
		t.Fatal("a run without satisfied results passed: its constraint check was empty")
	}
	rec, _ = handRecord(t)
	c.recheckAll("job-000001", []bench.Record{rec})
	c.identical, c.invariant = 1, 1
	if !c.ok() || c.records != 2 || c.satisfied != 1 {
		t.Fatalf("checks = %+v", c)
	}
}

func TestChecksNeedAComparisonAndAnInvariant(t *testing.T) {
	full := checks{satisfied: 1, identical: 1, invariant: 1}
	if !full.ok() || len(full.empty()) != 0 {
		t.Fatalf("complete checks rejected: %v", full.empty())
	}
	noRef := full
	noRef.identical = 0
	if noRef.ok() {
		t.Error("a run with no job compared to a cold library build passed")
	}
	noInv := full
	noInv.invariant = 0
	if noInv.ok() {
		t.Error("a run with no /metrics snapshot checked passed")
	}
	if got := (&checks{}).empty(); len(got) != 3 {
		t.Errorf("empty() of no checks = %v, want all three named", got)
	}
}

func TestReferenceFirstDone(t *testing.T) {
	// The spec names no dataset profile, so the reference build fails at
	// once and its error names the seed of the job it was built for.
	job := func(seed uint64, state string) jobRun {
		return jobRun{spec: serve.JobSpec{Scenarios: 1, Seed: seed, Datasets: []string{"no such profile"}}, state: state}
	}
	failed := job(1, string(serve.StateFailed))
	done2, done3 := job(2, string(serve.StateDone)), job(3, string(serve.StateDone))

	err := referenceFirstDone([]jobRun{failed, done2, done3}, map[string]*reference{}, 1)
	if err == nil || !strings.Contains(err.Error(), "seed 2") {
		t.Fatalf("referenceFirstDone = %v, want the build of the first done job (seed 2)", err)
	}
	// A done job that already has a reference needs no build.
	refs := map[string]*reference{specKey(done3.spec): {}}
	if err := referenceFirstDone([]jobRun{failed, done2, done3}, refs, 1); err != nil {
		t.Fatalf("referenceFirstDone with a reference present = %v", err)
	}
	// With every job failed there is nothing to compare; failed counts them.
	if err := referenceFirstDone([]jobRun{failed}, map[string]*reference{}, 1); err != nil {
		t.Fatalf("referenceFirstDone of failed jobs = %v", err)
	}
}

func TestParseCheckpointAndCompare(t *testing.T) {
	a, _ := handRecord(t)
	b := a
	b.ID = 1
	hdr, err := bench.EncodeCheckpointHeader(bench.Config{Scenarios: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.Write(hdr)
	for _, rec := range []bench.Record{a, b} {
		line, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
		body.WriteString("\n\n") // keepalive lines of a followed stream
	}
	recs, err := parseCheckpoint(body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != 1 || recs[1].ID != 4 {
		t.Fatalf("parsed %d records, IDs not sorted: %+v", len(recs), recs)
	}

	ref, err := newReference(&bench.Pool{Records: []bench.Record{b, a}})
	if err == nil {
		t.Fatal("reference of records missing strategies rendered a CSV")
	}
	ref = &reference{csv: []byte("csv")}
	for i := range recs {
		line, _ := json.Marshal(&recs[i])
		ref.records = append(ref.records, line)
	}
	var c checks
	c.compareToReference("job-000000", []byte("csv"), recs, ref)
	if len(c.failures) != 0 || c.identical != 1 {
		t.Fatalf("identical job flagged: %v", c.failures)
	}
	c.compareToReference("job-000001", []byte("csv2"), recs, ref)
	recs[1].Results["SFS(NR)"] = core.RunResult{Strategy: "SFS(NR)"}
	c.compareToReference("job-000002", []byte("csv"), recs, ref)
	if len(c.failures) != 2 || c.identical != 1 {
		t.Fatalf("differing jobs not flagged: %v", c.failures)
	}

	for _, bad := range []string{"", "{\"checkpoint\":\"other\",\"version\":1}\n", string(hdr) + "{not json\n"} {
		if _, err := parseCheckpoint([]byte(bad)); err == nil {
			t.Errorf("parseCheckpoint(%q) succeeded", bad)
		}
	}
}

func TestCheckInvariants(t *testing.T) {
	good := snapshot{
		Counters: map[string]int64{
			"memo.lookups": 10, "memo.hits": 4, "memo.misses": 5, "memo.waits": 1,
			"evalstore.lookups": 9, "evalstore.hits_mem": 4, "evalstore.hits_disk": 3, "evalstore.misses": 2,
			"serve.queue.admitted": 5, "serve.job.resumed": 1, "serve.job.done": 4, "serve.job.failed": 1,
		},
		Gauges: map[string]int64{"serve.jobs.running": 1},
	}
	var c checks
	c.checkInvariants("d", good)
	if len(c.failures) != 0 {
		t.Fatalf("consistent snapshot flagged: %v", c.failures)
	}
	for _, key := range []string{"memo.waits", "evalstore.hits_disk", "serve.job.done"} {
		bad := snapshot{Counters: map[string]int64{}, Gauges: good.Gauges}
		for k, v := range good.Counters {
			bad.Counters[k] = v
		}
		bad.Counters[key]++
		var c checks
		c.checkInvariants("d", bad)
		if len(c.failures) != 1 {
			t.Errorf("%s off by one: failures %v", key, c.failures)
		}
	}
}

func TestCheckCSV(t *testing.T) {
	rec, _ := handRecord(t)
	for _, name := range core.StrategyNames {
		if _, ok := rec.Results[name]; !ok {
			rec.Results[name] = core.RunResult{Strategy: name}
		}
	}
	rec.Results[core.OriginalFeaturesName] = core.RunResult{Strategy: core.OriginalFeaturesName}
	rec2 := rec
	rec2.ID = 0
	rec.ID = 1
	var buf bytes.Buffer
	if err := bench.WritePoolCSV(&buf, &bench.Pool{Records: []bench.Record{rec2, rec}}); err != nil {
		t.Fatal(err)
	}
	var c checks
	c.checkCSV("job", buf.Bytes(), 2)
	if len(c.failures) != 0 {
		t.Fatalf("two-scenario CSV flagged: %v", c.failures)
	}
	c.checkCSV("job", buf.Bytes(), 3)
	trunc := buf.Bytes()[:bytes.LastIndexByte(buf.Bytes()[:buf.Len()-1], '\n')+1]
	c.checkCSV("job", trunc, 2)
	if len(c.failures) != 2 {
		t.Fatalf("wrong scenario count and a missing row not both flagged: %v", c.failures)
	}
}
