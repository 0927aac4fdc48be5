package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// layers are the repository modules the benchmark attributes time to. A span
// belongs to the layer its name starts with ("seio.decode" → seio).
var layers = []string{"dataset", "core", "score", "algo", "seio", "server", "persist"}

// spanRec is one recorded span: a named interval with the span that caused
// it. Spans of one operation (a request, a solve, a probe) share Op.
type spanRec struct {
	Op     uint64 `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run and writes them out when it
// ends. The benchmark records spans from its own code, around each call it
// makes into a layer; a nil *tracer (the plain run) records nothing, so the
// end-to-end run pays one pointer check per call site.
type tracer struct {
	epoch  time.Time
	nextOp atomic.Uint64

	mu    sync.Mutex
	spans []spanRec
	open  []int // spans opened by do and not yet ended, innermost last
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// op mints a fresh operation ID (0 on nil).
func (t *tracer) op() uint64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// begin opens a span and returns its ID (-1 on nil).
func (t *tracer) begin(op uint64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{Op: op, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span named name. Spans that do opens while fn runs
// are its children and share its operation; a span opened with nothing
// around it starts a new operation. Only the benchmark's main goroutine
// calls do: concurrent request spans open their own operations with begin.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.mu.Lock()
	parent := -1
	var op uint64
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		op = t.spans[parent].Op
	}
	t.mu.Unlock()
	if parent < 0 {
		op = t.op()
	}
	id := t.begin(op, parent, name)
	t.mu.Lock()
	t.open = append(t.open, id)
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		t.open = t.open[:len(t.open)-1]
		t.mu.Unlock()
		t.end(id)
	}()
	fn()
}

// layerOf maps a span name to its layer ("" when it names none).
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	for _, known := range layers {
		if l == known {
			return l
		}
	}
	return ""
}

// selfTimes returns each layer's self time: for every span, its duration
// minus the part of its interval that its children cover, summed by layer.
// Unended spans are ignored.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration, len(layers))
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]spanRec)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := (s.End - s.Start) - covered(s, children[s.ID])
		if l := layerOf(s.Name); l != "" {
			out[l] += time.Duration(self)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent's, so overlapping children are not subtracted twice.
func covered(parent spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// write stores every span, plus the run's header, as one JSON document.
func (t *tracer) write(path string, header map[string]any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := map[string]any{"header": header, "epoch": t.epoch, "spans": t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
