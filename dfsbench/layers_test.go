package main

import (
	"strings"
	"testing"
)

// A client job span (0-100) holds a submit (0-10) and a stream read
// (10-100). The daemon admitted job-000001 at 5 and ended it at 90; its
// build (20-80) holds a pool (22-78) with one strategy run (30-70) that
// trained twice (40-50 and 45-60), and a checkpoint append (71-75) parented
// to the build. A second daemon's job-000001, admitted outside the submit,
// must not be linked.
const syntheticTrace = `{"t":"start","id":1,"name":"bench.job","ts":0}
{"t":"start","id":2,"parent":1,"name":"bench.submit","ts":0}
{"t":"start","id":3,"name":"job","ts":5,"job":"job-000001"}
{"t":"end","id":2,"ts":10}
{"t":"start","id":4,"parent":1,"name":"bench.stream","ts":10}
{"t":"start","id":9,"name":"job","ts":12,"job":"job-000001"}
{"t":"start","id":5,"parent":3,"name":"bench.build","ts":20,"job":"job-000001","role":"bench"}
{"t":"start","id":7,"parent":5,"name":"pool","ts":22}
{"t":"start","id":6,"parent":7,"name":"strategy_run","ts":30,"strategy":"SFS(NR)"}
{"t":"event","span":6,"name":"eval","ts":50,"memo":"miss","wall_s":1e-8}
{"t":"event","span":6,"name":"eval","ts":60,"memo":"miss","wall_s":1.5e-8}
{"t":"event","span":6,"name":"eval","ts":65,"memo":"hit","wall_s":0}
{"t":"end","id":6,"ts":70}
{"t":"start","id":8,"parent":5,"name":"bench.checkpoint_append","ts":71}
{"t":"end","id":8,"ts":75}
{"t":"end","id":7,"ts":78}
{"t":"end","id":5,"ts":80}
{"t":"end","id":3,"ts":90}
{"t":"end","id":9,"ts":95}
{"t":"end","id":4,"ts":100}
{"t":"end","id":1,"ts":100,"job":"job-000001","state":"done"}
`

func TestSpanTreeAttribution(t *testing.T) {
	tree, err := parseTrace([]byte(syntheticTrace), []interval{{0, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	tree.linkJobs()
	root := tree.byID[1]
	if root.job != "job-000001" {
		t.Fatalf("client span job %q, want the ID from its end line", root.job)
	}
	var linked []uint64
	for _, c := range root.children {
		linked = append(linked, c.id)
	}
	if len(linked) != 3 || linked[2] != 3 {
		t.Fatalf("client span children %v, want submit, stream and daemon job 3", linked)
	}
	if s := tree.byID[4]; s.start != 90 {
		t.Fatalf("stream span starts at %d after linking, want the job's end 90", s.start)
	}
	got := selfByLayer(root)
	want := map[string]float64{
		"bench.job": 0, "bench.submit": 5e-9, "bench.stream": 10e-9, "job": 25e-9,
		"bench.build": 4e-9, "pool": 12e-9, "bench.checkpoint_append": 4e-9,
		"strategy_run": 20e-9, "train": 25e-9,
	}
	for k, v := range want {
		if !near(got[k], v) {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

func TestNamedKeepsTimedWindowsOnly(t *testing.T) {
	tree, err := parseTrace([]byte(syntheticTrace), []interval{{4, 13}})
	if err != nil {
		t.Fatal(err)
	}
	jobs := tree.named("job")
	if len(jobs) != 2 {
		t.Fatalf("%d job spans in the window, want 2", len(jobs))
	}
	if len(tree.named("bench.job")) != 0 {
		t.Fatal("a span started before the window was kept")
	}
	if _, err := parseTrace([]byte("{not json\n"), nil); err == nil {
		t.Fatal("a malformed trace line parsed")
	}
}

func TestMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"TPE(Chi2)":         "TPE-Chi2",
		"NSGA-II(NR)":       "NSGA-II-NR",
		"Original Features": "Original_Features",
	} {
		if got := metricName(in); got != want {
			t.Errorf("metricName(%q) = %q, want %q", in, got, want)
		}
	}
	for _, name := range strategyMetricNames() {
		if m := metricName(name); strings.Trim(m, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" {
			t.Errorf("metric name %q keeps a character outside [A-Za-z0-9_.-]", m)
		}
	}
}
