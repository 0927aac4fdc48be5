package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/seio"
)

// The load generator drives a server over real HTTP from inside the
// benchmark process. It does not reuse sesload's loop: sesload starts one
// goroutine per request, so under a stall it opens an unbounded number of
// connections, and it times each request from when it was sent, so the wait
// a stall imposes on the requests due behind it never shows. Here a fixed set
// of senders (at most one connection each) drains a queue of requests, and
// each open-loop request is timed from its due time.

// request is one HTTP call of a workload's request stream.
type request struct {
	kind   string // solve, extend, patch, batch, put, ...
	method string
	path   string
	body   []byte
	// file, when set, is streamed as the body instead: an upload reads its
	// document from disk, so the benchmark's heap does not carry it.
	file string
}

// outcome is one finished request as the client saw it.
type outcome struct {
	kind    string
	due     time.Time // when an open loop meant to send it; zero in a closed loop
	sent    time.Time
	done    time.Time
	status  int    // 0 = transport error
	body    []byte // response body
	reqBody []byte
	resp    *seio.SolveResponse // decoded body of a successful solve or extend
}

// ok reports a 2xx response.
func (o outcome) ok() bool { return o.status >= 200 && o.status < 300 }

// latency is the time the caller waited: from the due time in an open loop
// (so queueing behind a stall counts), from the send in a closed loop.
func (o outcome) latency() time.Duration {
	from := o.due
	if from.IsZero() {
		from = o.sent
	}
	return o.done.Sub(from)
}

// client sends requests to one server over at most conns connections.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, conns int, tr *tracer) *client {
	transport := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: transport}, tr: tr}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. The traced run records
// it as a server-layer span named after the request kind.
func (c *client) do(ctx context.Context, r request) outcome {
	out := outcome{kind: r.kind, reqBody: r.body}
	id := c.tr.begin(c.tr.op(), -1, "server."+r.kind)
	defer c.tr.end(id)
	out.sent = time.Now()
	out.done = out.sent
	var body io.Reader
	var size int64 = -1
	switch {
	case r.file != "":
		f, err := os.Open(r.file)
		if err != nil {
			return out
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return out
		}
		body, size = f, st.Size() // the transport closes it
	case r.body != nil:
		body, size = bytes.NewReader(r.body), int64(len(r.body))
	}
	req, err := http.NewRequestWithContext(ctx, r.method, c.base+r.path, body)
	if err != nil {
		if f, ok := body.(*os.File); ok {
			f.Close()
		}
		return out
	}
	if body != nil {
		req.ContentLength = size
		req.Header.Set("Content-Type", "application/json")
	}
	out.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		out.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			out.status = resp.StatusCode
		}
	}
	out.done = time.Now()
	return out
}

// queued is a request released by the open-loop dispatcher.
type queued struct {
	i   int
	due time.Time
	req request
}

// openLoop offers n = rate·dur requests on a fixed schedule: request i is due
// at start + i/rate whatever the server does. A dispatcher releases each one
// into a queue at its due time and conns senders drain the queue, so a slow
// server makes requests wait in the queue and that wait is part of their
// latency. It returns the outcomes in due order and the generator's lateness
// per request (release time minus due time), which must stay small for the
// run to be valid.
func (c *client) openLoop(ctx context.Context, rate float64, dur time.Duration, conns int, next func() request) ([]outcome, []float64) {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	outs := make([]outcome, n)
	lags := make([]float64, n)
	// Sized to the number of sends: the dispatcher never blocks on a full
	// queue, so a stalled server cannot make the generator late.
	queue := make(chan queued, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				o := c.do(ctx, q.req)
				o.due = q.due
				outs[q.i] = o
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- queued{i: i, due: due, req: next()}
		lags[i] = ms(time.Since(due))
	}
	close(queue)
	wg.Wait()
	return outs, lags
}

// closedLoop runs clients callers for dur; each sends its next request only
// after the previous one completed.
func (c *client) closedLoop(ctx context.Context, clients int, dur time.Duration, next func() request) []outcome {
	var (
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				mu.Lock()
				r := next()
				mu.Unlock()
				o := c.do(ctx, r)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// kindCount tallies one request kind.
type kindCount struct {
	Attempted, Succeeded, Refused, Failed int // Refused: 429
}

// tally counts outcomes by kind.
func tally(outs []outcome) map[string]*kindCount {
	m := make(map[string]*kindCount)
	for _, o := range outs {
		k := m[o.kind]
		if k == nil {
			k = &kindCount{}
			m[o.kind] = k
		}
		k.Attempted++
		switch {
		case o.ok():
			k.Succeeded++
		case o.status == http.StatusTooManyRequests:
			k.Refused++
		default:
			k.Failed++
		}
	}
	return m
}

// formatTally renders the per-kind counts in a fixed order.
func formatTally(m map[string]*kindCount) string {
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b bytes.Buffer
	for _, k := range kinds {
		c := m[k]
		fmt.Fprintf(&b, " %s=%d/%d/%d/%d", k, c.Attempted, c.Succeeded, c.Refused, c.Failed)
	}
	return b.String()
}

// latencies returns the latencies in ms of the outcomes of the given kinds
// that keep(o) accepts; a failed or refused request counts as missing every
// limit, so it enters as the whole window length.
func latencies(outs []outcome, window time.Duration, keep func(outcome) bool) []float64 {
	var v []float64
	for _, o := range outs {
		if !keep(o) {
			continue
		}
		if !o.ok() {
			v = append(v, ms(window))
			continue
		}
		v = append(v, ms(o.latency()))
	}
	return v
}

// ofKind returns a keep func selecting the listed kinds.
func ofKind(kinds ...string) func(outcome) bool {
	return func(o outcome) bool {
		for _, k := range kinds {
			if o.kind == k {
				return true
			}
		}
		return false
	}
}

// perSecond returns the median, over the whole seconds of [start,
// start+dur), of how many outcomes keep accepts completed successfully in
// each second. A median over seconds keeps a burst of noise in one second
// from moving the rate; a window shorter than a second is one bucket.
func perSecond(outs []outcome, start time.Time, dur time.Duration, keep func(outcome) bool) float64 {
	width := time.Second
	if dur < width {
		width = dur
	}
	counts := make([]float64, int(dur/width))
	for _, o := range outs {
		if i := int(o.done.Sub(start) / width); o.ok() && keep(o) && i >= 0 && i < len(counts) {
			counts[i]++
		}
	}
	return median(counts) / width.Seconds()
}
