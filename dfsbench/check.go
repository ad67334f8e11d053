package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/synth"
)

// checks collects the outcome of the correctness checks of one run. Every
// check appends its failures; a run is correct when none were recorded and
// no check was empty.
type checks struct {
	failures  []string
	satisfied int // satisfied strategy results re-checked
	records   int // records re-checked
	identical int // jobs proven byte-identical to a cold library build
	invariant int // /metrics snapshots whose counter invariants were checked
}

func (c *checks) failf(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	} else if len(c.failures) == 20 {
		c.failures = append(c.failures, "further failures omitted")
	}
}

// empty names the checks that examined nothing in this run: a check that
// never ran proves nothing, so a run with any of them is not correct.
func (c *checks) empty() []string {
	var out []string
	if c.satisfied == 0 {
		out = append(out, "no satisfied result to re-check")
	}
	if c.identical == 0 {
		out = append(out, "no job compared with a cold library build")
	}
	if c.invariant == 0 {
		out = append(out, "no /metrics snapshot checked at quiesce")
	}
	return out
}

func (c *checks) ok() bool { return len(c.failures) == 0 && len(c.empty()) == 0 }

// rowsPerScenario is the number of CSV rows of one scenario: the Original
// Features baseline plus one per strategy.
var rowsPerScenario = 1 + len(core.StrategyNames)

// checkCSV verifies a done job's CSV holds exactly the rows of scenarios
// 0..n-1, rowsPerScenario each.
func (c *checks) checkCSV(job string, data []byte, scenarios int) {
	sh, err := countCSV(data)
	if err != nil {
		c.failf("%s: %v", job, err)
		return
	}
	if sh.rows != scenarios*rowsPerScenario || len(sh.perID) != scenarios {
		c.failf("%s: CSV has %d rows over %d scenarios, want %d over %d",
			job, sh.rows, len(sh.perID), scenarios*rowsPerScenario, scenarios)
		return
	}
	for id := 0; id < scenarios; id++ {
		if sh.perID[id] != rowsPerScenario {
			c.failf("%s: scenario %d has %d CSV rows, want %d", job, id, sh.perID[id], rowsPerScenario)
		}
	}
}

// recheck verifies every strategy result a record marks satisfied against
// the record's own constraints. The comparisons are written out here rather
// than delegated to constraint.Set.Satisfied, so a defect there cannot hide
// a violation. It returns the problems found and the number of satisfied
// results examined.
func recheck(rec *bench.Record) (problems []string, satisfied int) {
	prof, err := synth.ByName(rec.Dataset)
	if err != nil {
		return []string{fmt.Sprintf("scenario %d: %v", rec.ID, err)}, 0
	}
	nFeatures := prof.Features()
	c := rec.Constraints
	names := make([]string, 0, len(rec.Results))
	for name := range rec.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res := rec.Results[name]
		if !res.Satisfied {
			continue
		}
		satisfied++
		bad := func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf("scenario %d %s: ", rec.ID, name)+fmt.Sprintf(format, args...))
		}
		ts := res.TestScores
		if !(ts.F1 >= c.MinF1) {
			bad("test F1 %v below MinF1 %v", ts.F1, c.MinF1)
		}
		if c.MinEO > 0 && !(ts.EO >= c.MinEO) {
			bad("test EO %v below MinEO %v", ts.EO, c.MinEO)
		}
		if c.MinSafety > 0 && !(ts.Safety >= c.MinSafety) {
			bad("test safety %v below MinSafety %v", ts.Safety, c.MinSafety)
		}
		frac := float64(len(res.Features)) / float64(nFeatures)
		if c.MaxFeatureFrac > 0 && !(frac <= c.MaxFeatureFrac) {
			bad("%d of %d features (%v) above MaxFeatureFrac %v", len(res.Features), nFeatures, frac, c.MaxFeatureFrac)
		}
		if frac != ts.FeatureFrac {
			bad("%d of %d features is %v, but the reported FeatureFrac is %v", len(res.Features), nFeatures, frac, ts.FeatureFrac)
		}
		if !(res.CostAtSolution <= c.MaxSearchCost) {
			bad("cost at solution %v above MaxSearchCost %v", res.CostAtSolution, c.MaxSearchCost)
		}
		if !(res.CostAtSolution <= res.TotalCost) {
			bad("cost at solution %v above total cost %v", res.CostAtSolution, res.TotalCost)
		}
	}
	return problems, satisfied
}

// recheckAll runs recheck over a job's records.
func (c *checks) recheckAll(job string, recs []bench.Record) {
	for i := range recs {
		problems, sat := recheck(&recs[i])
		c.records++
		c.satisfied += sat
		for _, p := range problems {
			c.failf("%s: %s", job, p)
		}
	}
}

// parseCheckpoint decodes a checkpoint NDJSON body (header line, record
// lines, optional blank keepalives) into records sorted by scenario ID.
func parseCheckpoint(data []byte) ([]bench.Record, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 16<<20)
	var recs []bench.Record
	header := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if header {
			if _, err := bench.DecodeCheckpointHeader(line); err != nil {
				return nil, err
			}
			header = false
			continue
		}
		var rec bench.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("checkpoint record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if header {
		return nil, fmt.Errorf("checkpoint has no header")
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, nil
}

// reference is a spec built cold by the library path: no daemon, no store,
// no fan-out.
type reference struct {
	csv     []byte
	records [][]byte // JSON of each record, by scenario ID
}

func newReference(p *bench.Pool) (*reference, error) {
	var buf bytes.Buffer
	if err := bench.WritePoolCSV(&buf, p); err != nil {
		return nil, err
	}
	ref := &reference{csv: buf.Bytes()}
	for i := range p.Records {
		b, err := json.Marshal(&p.Records[i])
		if err != nil {
			return nil, err
		}
		ref.records = append(ref.records, b)
	}
	return ref, nil
}

// compareToReference checks a job's CSV and records are byte-identical to
// the cold library build of the same spec.
func (c *checks) compareToReference(job string, csv []byte, recs []bench.Record, ref *reference) {
	if !bytes.Equal(csv, ref.csv) {
		c.failf("%s: CSV differs from the cold library build (%d vs %d bytes)", job, len(csv), len(ref.csv))
		return
	}
	if len(recs) != len(ref.records) {
		c.failf("%s: %d records, the cold library build has %d", job, len(recs), len(ref.records))
		return
	}
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			c.failf("%s: encode record %d: %v", job, recs[i].ID, err)
			return
		}
		if !bytes.Equal(b, ref.records[i]) {
			c.failf("%s: record %d differs from the cold library build", job, recs[i].ID)
			return
		}
	}
	c.identical++
}

// checkInvariants verifies the counter identities of one daemon's /metrics
// snapshot taken at quiesce.
func (c *checks) checkInvariants(daemon string, s snapshot) {
	c.invariant++
	cn := s.Counters
	if l, sum := cn["memo.lookups"], cn["memo.hits"]+cn["memo.misses"]+cn["memo.waits"]; l != sum {
		c.failf("%s: memo.lookups %d != hits+misses+waits %d", daemon, l, sum)
	}
	if l, sum := cn["evalstore.lookups"], cn["evalstore.hits_mem"]+cn["evalstore.hits_disk"]+cn["evalstore.misses"]; l != sum {
		c.failf("%s: evalstore.lookups %d != hits_mem+hits_disk+misses %d", daemon, l, sum)
	}
	in := cn["serve.queue.admitted"] + cn["serve.job.resumed"]
	out := cn["serve.job.done"] + cn["serve.job.failed"] + cn["serve.job.drained"] +
		s.Gauges["serve.queue.depth"] + s.Gauges["serve.jobs.running"]
	if in != out {
		c.failf("%s: admitted+resumed %d != done+failed+drained+queued+running %d", daemon, in, out)
	}
}
