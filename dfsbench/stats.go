package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailMinSamples is the sample count below which a percentile above the
// median is not reported: with fewer jobs the p90 is one or two samples and
// says nothing about the tail.
const tailMinSamples = 100

// percentile returns the q-quantile (0..1) of vals by linear interpolation
// between closest ranks. It reports false for an empty slice, and for any q
// above the median when fewer than tailMinSamples values back it.
func percentile(vals []float64, q float64) (float64, bool) {
	if len(vals) == 0 || (q > 0.5 && len(vals) < tailMinSamples) {
		return 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo)), true
}

// median is percentile(vals, 0.5); 0 for an empty slice.
func median(vals []float64) float64 {
	m, _ := percentile(vals, 0.5)
	return m
}

// quartiles reproduces Python's statistics.quantiles(vals, n=4) with the
// default "exclusive" method, so the steadiness figures match the ones the
// benchmark is judged by. It needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64, err error) {
	ld := len(vals)
	if ld < 2 {
		return 0, 0, 0, errors.New("quartiles need at least two values")
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], nil
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) (float64, error) {
	q1, q2, q3, err := quartiles(vals)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, errors.New("spread of values with median 0")
	}
	return (q3 - q1) / q2, nil
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [w.start, w.end) the intervals cover,
// counting overlapping parts once.
func covered(w interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < w.start {
			iv.start = w.start
		}
		if iv.end > w.end {
			iv.end = w.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	if len(clipped) == 0 {
		return 0
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	cur := clipped[0]
	for _, iv := range clipped[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(span interval, children []interval) int64 {
	return span.end - span.start - covered(span, children)
}

// cpuTime is the user+system CPU time this process has used so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSS reads this process's peak resident set size (VmHWM) in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM extracts the VmHWM line of a /proc/<pid>/status file, in
// bytes.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed VmHWM line %q: %w", sc.Text(), err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line")
}

// csvShape summarizes a pool CSV as served by GET /jobs/{id}/result.
type csvShape struct {
	rows      int         // data rows, header excluded
	perID     map[int]int // rows per scenario ID
	headerLen int
}

// countCSV parses a pool CSV and counts its data rows per scenario ID (the
// first column). The header row is required.
func countCSV(data []byte) (csvShape, error) {
	rd := csv.NewReader(bytes.NewReader(data))
	header, err := rd.Read()
	if err != nil {
		return csvShape{}, fmt.Errorf("csv header: %w", err)
	}
	sh := csvShape{perID: make(map[int]int), headerLen: len(header)}
	for {
		row, err := rd.Read()
		if err == io.EOF {
			return sh, nil
		}
		if err != nil {
			return csvShape{}, fmt.Errorf("csv row %d: %w", sh.rows+1, err)
		}
		id, err := strconv.Atoi(row[0])
		if err != nil {
			return csvShape{}, fmt.Errorf("csv row %d: scenario %q: %w", sh.rows+1, row[0], err)
		}
		sh.rows++
		sh.perID[id]++
	}
}
