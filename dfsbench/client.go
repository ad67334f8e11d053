package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/serve"
)

// client drives dfsd over its HTTP API, the way a user's program would.
type client struct {
	hc *http.Client
}

func newClient() *client {
	tr := &http.Transport{DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobRun is one job as the client saw it. Times are offsets from start.
type jobRun struct {
	spec      serve.JobSpec
	id        string
	start     time.Time
	submitted time.Duration // POST /jobs answered
	firstRow  time.Duration // first CSV data row read
	lastByte  time.Duration // last byte of the followed CSV read
	csv       []byte
	state     string // X-Dfs-Job-State trailer
	err       error
	// The process's CPU and heap allocation over the job: no other job
	// overlaps it, so they are the job's own.
	cpu   time.Duration
	alloc uint64
}

func (j *jobRun) done() bool { return j.err == nil && j.state == string(serve.StateDone) }

// runJob submits spec and follows its result stream to the last byte. The
// spans record the client side of the job when tr is not nil.
func (c *client) runJob(ctx context.Context, base string, spec serve.JobSpec, tr *obs.Tracer) jobRun {
	run := jobRun{spec: spec, start: time.Now()}
	root := tr.StartSpan(0, "bench.job")
	defer func() { tr.EndSpan(root, obs.Str("job", run.id), obs.Str("state", run.state)) }()

	body, err := json.Marshal(spec)
	if err != nil {
		run.err = err
		return run
	}
	sub := tr.StartSpan(root, "bench.submit")
	var st serve.Status
	err = c.do(ctx, http.MethodPost, base+"/jobs", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	tr.EndSpan(sub)
	run.submitted = time.Since(run.start)
	if err != nil {
		run.err = fmt.Errorf("submit: %w", err)
		return run
	}
	run.id = st.ID

	stream := tr.StartSpan(root, "bench.stream")
	defer tr.EndSpan(stream)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+st.ID+"/result?follow=1", nil)
	if err != nil {
		run.err = err
		return run
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		run.err = fmt.Errorf("follow %s: %w", st.ID, err)
		return run
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		run.err = fmt.Errorf("follow %s: HTTP %d: %s", st.ID, resp.StatusCode, bytes.TrimSpace(b))
		return run
	}
	var buf bytes.Buffer
	chunk := make([]byte, 32<<10)
	newlines := 0
	for {
		n, rerr := resp.Body.Read(chunk)
		if n > 0 {
			if newlines < 2 {
				// The header is the first line; the first data row ends at
				// the second newline.
				newlines += bytes.Count(chunk[:n], []byte{'\n'})
				if newlines >= 2 {
					run.firstRow = time.Since(run.start)
				}
			}
			buf.Write(chunk[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			run.err = fmt.Errorf("follow %s: %w", st.ID, rerr)
			return run
		}
	}
	run.lastByte = time.Since(run.start)
	run.csv = buf.Bytes()
	run.state = resp.Trailer.Get("X-Dfs-Job-State")
	if run.state != string(serve.StateDone) {
		run.err = fmt.Errorf("job %s ended %q", st.ID, run.state)
	}
	return run
}

// do issues one request and hands the body to read when the status matches.
func (c *client) do(ctx context.Context, method, url string, body []byte, want int, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if read == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return read(resp.Body)
}

// checkpoint downloads a done job's checkpoint NDJSON.
func (c *client) checkpoint(ctx context.Context, base, id string) ([]byte, error) {
	var data []byte
	err := c.do(ctx, http.MethodGet, base+"/jobs/"+id+"/checkpoint", nil, http.StatusOK, func(r io.Reader) error {
		var err error
		data, err = io.ReadAll(r)
		return err
	})
	return data, err
}

// snapshot is the JSON form of GET /metrics.
type snapshot struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func (c *client) metrics(ctx context.Context, base string) (snapshot, error) {
	var s snapshot
	err := c.do(ctx, http.MethodGet, base+"/metrics", nil, http.StatusOK, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&s)
	})
	return s, err
}

// waitHealthy polls GET /healthz until the daemon answers 200.
func (c *client) waitHealthy(ctx context.Context, base string) error {
	for {
		err := c.do(ctx, http.MethodGet, base+"/healthz", nil, http.StatusOK, nil)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("healthz %s: %w (last: %v)", base, ctx.Err(), err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// waitQuiesce polls /metrics until nothing is queued or running, and returns
// that snapshot.
func (c *client) waitQuiesce(ctx context.Context, base string) (snapshot, error) {
	for {
		s, err := c.metrics(ctx, base)
		if err != nil {
			return s, err
		}
		if s.Gauges["serve.queue.depth"] == 0 && s.Gauges["serve.jobs.running"] == 0 {
			return s, nil
		}
		select {
		case <-ctx.Done():
			return s, fmt.Errorf("quiesce %s: %w", base, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}
