package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadyMain runs one workload N times, each with the next seed, and prints
// each metric's median, quartiles and spread (interquartile distance as a
// share of the median), plus the share of failed jobs per run.
func steadyMain(args []string) int {
	fl := flag.NewFlagSet("dfsbench steady", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to repeat")
	runs := fl.Int("runs", 5, "number of runs")
	seed0 := fl.Uint64("seed0", 1, "seed of the first run; run i uses seed0+i")
	seconds := fl.Int("seconds", 30, "--seconds of every run")
	trace := fl.Int("trace", 0, "--trace of every run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *runs < 2 {
		fmt.Fprintln(os.Stderr, "dfsbench steady: need --runs >= 2")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfsbench steady:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []string
	for i := 0; i < *runs; i++ {
		seed := *seed0 + uint64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "dfsbench steady: run with seed %d: %v\n", seed, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(os.Stderr, "dfsbench steady: seed %d: result line: %v\n", seed, err)
			return 1
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", seed, res.Correct, res.Attempted, res.Failed)
		failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %12s %12s %12s %8s  unit\n", "metric", "median", "q1", "q3", "spread")
	for _, k := range names {
		q1, q2, q3, err := quartiles(values[k])
		if err != nil {
			continue
		}
		sp := "n/a"
		if s, err := spread(values[k]); err == nil {
			sp = fmt.Sprintf("%.4f", s)
		}
		fmt.Printf("%-34s %12.6g %12.6g %12.6g %8s  %s\n", k, q2, q1, q3, sp, units[k])
	}
	fmt.Printf("failed/attempted per run: %v\n", failShares)
	return 0
}
