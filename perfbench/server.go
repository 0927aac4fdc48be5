package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics/span"
	"repro/internal/seio"
	"repro/internal/server"
)

// liveServer is a server.Server behind a loopback http.Server in the
// benchmark's own process, so the real HTTP stack, codecs, pool, caches and
// store serve every request.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startServer(cfg server.Config) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return ls, nil
}

// stop shuts the listener down, waits for its goroutine, and closes the
// server (draining the pool and sealing the WAL).
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx) // on timeout the listener is closed anyway
	<-ls.done
	ls.srv.Close()
}

// getJSON fetches path and decodes the body into v.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	o := c.do(ctx, request{kind: "get", method: http.MethodGet, path: path})
	if !o.ok() {
		return fmt.Errorf("GET %s: status %d: %s", path, o.status, bytes.TrimSpace(o.body))
	}
	return json.Unmarshal(o.body, v)
}

// mixStream draws sesload's default request mix (solve=8, extend=1,
// patch=1, batch=1) from one seeded generator: HOR-I solves, extends of an
// empty base, and one-cell mutations. Kinds come in blocks of eleven, each a
// seeded shuffle of the exact mix, so every stretch of a run carries the
// mix's proportions and runs of different seeds differ only in order and
// cells, not in how much of each kind they send.
type mixStream struct {
	rng                      *rand.Rand
	name                     string
	users, events, intervals int
	k                        int
	block                    []string
}

var mixBlock = []string{"solve", "solve", "solve", "solve", "solve", "solve", "solve", "solve", "extend", "patch", "batch"}

func (m *mixStream) cell() seio.CellUpdate {
	return seio.CellUpdate{User: m.rng.IntN(m.users), Index: m.rng.IntN(m.events), Value: m.rng.Float64()}
}

func (m *mixStream) solve() request {
	return request{kind: "solve", method: http.MethodPost, path: "/instances/" + m.name + "/solve",
		body: []byte(mustJSON(seio.SolveRequest{Algorithm: "HOR-I", K: m.k, Seed: m.rng.Uint64()}))}
}

func (m *mixStream) patch() request {
	return request{kind: "patch", method: http.MethodPatch, path: "/instances/" + m.name,
		body: []byte(mustJSON(seio.MutateRequest{Interest: []seio.CellUpdate{m.cell()}}))}
}

func (m *mixStream) next() request {
	if len(m.block) == 0 {
		m.block = append(m.block, mixBlock...)
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	kind := m.block[0]
	m.block = m.block[1:]
	switch kind {
	case "solve":
		return m.solve()
	case "extend":
		return request{kind: "extend", method: http.MethodPost, path: "/instances/" + m.name + "/extend",
			body: []byte(mustJSON(seio.ExtendRequest{Extra: m.k}))}
	case "patch":
		return m.patch()
	default:
		return request{kind: "batch", method: http.MethodPost, path: "/instances/" + m.name + "/mutations",
			body: []byte(mustJSON(seio.BatchMutateRequest{Mutations: []seio.MutateRequest{
				{Interest: []seio.CellUpdate{m.cell(), m.cell()}},
				{Activity: []seio.CellUpdate{{User: 0, Index: m.rng.IntN(m.intervals), Value: m.rng.Float64()}}},
			}}))}
	}
}

// serverDiag reads the server's own view of a run: route latency medians
// from /metrics, cache and engine ratios from /stats, and the solve route's
// stage medians from the traces of the given (fresh) solves.
func serverDiag(ctx context.Context, c *client, traceIDs []string) (map[string]float64, error) {
	d := map[string]float64{}
	var stats server.Stats
	if err := c.getJSON(ctx, "/stats", &stats); err != nil {
		return nil, err
	}
	d["server.result_cache_hit_ratio"] = stats.Cache.HitRate
	if n := stats.Engines.Hits + stats.Engines.Misses; n > 0 {
		d["server.engine_hit_ratio"] = float64(stats.Engines.Hits) / float64(n)
		d["server.engine_warm_ratio"] = float64(stats.Engines.WarmBuilds) / float64(n)
	}
	o := c.do(ctx, request{kind: "get", method: http.MethodGet, path: "/metrics"})
	if !o.ok() {
		return nil, fmt.Errorf("GET /metrics: status %d", o.status)
	}
	for _, route := range []string{"solve", "extend", "mutate_instance", "mutate_batch", "put_instance"} {
		if v, ok := histogramP50(o.body, "sesd_http_request_duration_seconds", `route="`+route+`"`); ok {
			d["server.route_ms."+route] = v * 1000
		}
	}
	if v, ok := histogramP50(o.body, "sesd_pool_queue_wait_seconds", ""); ok {
		d["server.pool_queue_wait_p50_ms"] = v * 1000
	}
	stages := map[string][]float64{}
	for _, id := range traceIDs {
		var td span.TraceData
		if err := c.getJSON(ctx, "/debug/traces/"+id, &td); err != nil {
			return nil, err
		}
		for _, ch := range td.Root.Children {
			stages[ch.Name] = append(stages[ch.Name], ch.DurationMS)
		}
	}
	for name, v := range stages {
		d["server.stage."+name+"_ms"] = median(v)
	}
	return d, nil
}

// histogramP50 interpolates the median of a Prometheus histogram family from
// its cumulative buckets, restricted to series whose labels contain filter.
func histogramP50(text []byte, family, filter string) (float64, bool) {
	type bucket struct{ le, n float64 }
	var bs []bucket
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	prefix := family + "_bucket{"
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) || !strings.Contains(line, filter) {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.LastIndex(line, `"}`)
		if i < 0 || j < i {
			continue
		}
		le, err1 := strconv.ParseFloat(line[i+4:j], 64)
		n, err2 := strconv.ParseFloat(strings.TrimSpace(line[j+2:]), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		bs = append(bs, bucket{le, n})
	}
	sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0, false
	}
	target := bs[len(bs)-1].n / 2
	prevLE, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if math.IsInf(b.le, 1) {
				return prevLE, true
			}
			if b.n == prevN {
				return b.le, true
			}
			return prevLE + (b.le-prevLE)*(target-prevN)/(b.n-prevN), true
		}
		prevLE, prevN = b.le, b.n
	}
	return 0, false
}
