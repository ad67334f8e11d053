package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileTailNeedsHundredSamples(t *testing.T) {
	vals := make([]float64, 99)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if _, ok := percentile(vals, 0.9); ok {
		t.Fatal("p90 reported over 99 samples")
	}
	if m, ok := percentile(vals, 0.5); !ok || m != 50 {
		t.Fatalf("median of 1..99 = %v, %v; want 50", m, ok)
	}
	vals = append(vals, 100)
	p90, ok := percentile(vals, 0.9)
	if !ok || !near(p90, 90.1) {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90.1", p90, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("median of nothing reported")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median(4,1,3,2) = %v, want 2.5", m)
	}
}

// The expected values are Python's statistics.quantiles(vals, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vals []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.31, 0.29, 0.35, 0.30, 0.33, 0.28, 0.40, 0.32, 0.30, 0.29}, [3]float64{0.29, 0.305, 0.33499999999999996}},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.vals)
		if err != nil {
			t.Fatal(err)
		}
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.vals, q1, q2, q3, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value succeeded")
	}
	sp, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || !near(sp, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v, %v", sp, err)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	span := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}, {35, 45}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"sticking out", []interval{{-50, 10}, {95, 200}}, 85},
		{"outside", []interval{{-20, -10}, {100, 120}}, 100},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"covering", []interval{{-1, 101}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestCPUTimeAdvances(t *testing.T) {
	a, err := cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		x += math.Sqrt(x + 1)
	}
	b, err := cpuTime()
	if err != nil {
		t.Fatal(err)
	}
	if d := b - a; d < 10*time.Millisecond || d > 10*time.Second {
		t.Fatalf("50ms of busy work used %v of CPU (x=%v)", d, x)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tdfsbench\nVmPeak:\t  812344 kB\nVmHWM:\t   21744 kB\nVmRSS:\t   20180 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 21744<<10 {
		t.Fatalf("parseVmHWM = %d, %v; want %d", got, err, 21744<<10)
	}
	for _, bad := range []string{"VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
	if rss, err := peakRSS(); err != nil || rss <= 0 {
		t.Fatalf("peakRSS() = %d, %v", rss, err)
	}
}

func TestCountCSV(t *testing.T) {
	data := "scenario,dataset,strategy\n" +
		"0,COMPAS,Original Features\n" +
		"0,COMPAS,\"TPE(Chi2)\"\n" +
		"1,\"Name, with comma\",SFS(NR)\n"
	sh, err := countCSV([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	if sh.rows != 3 || sh.perID[0] != 2 || sh.perID[1] != 1 || len(sh.perID) != 2 || sh.headerLen != 3 {
		t.Fatalf("countCSV = %+v", sh)
	}
	for _, bad := range []string{"", "scenario,dataset\nx,COMPAS\n", "scenario,dataset\n0,COMPAS,extra\n"} {
		if _, err := countCSV([]byte(bad)); err == nil {
			t.Errorf("countCSV(%q) succeeded", bad)
		}
	}
}
