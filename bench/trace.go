package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one step or request share
// a TraceID; Parent is the ID of the span that caused this one (0 = root).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	TraceID int    `json:"trace_id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps the spans of one workload's traced pass in memory. A nil
// tracer records nothing, which is how the untraced pass runs the same
// code.
//
// While block > 0 the tracer also stays silent for every other block of
// that many trace ids: the timed phase of a traced pass alternates traced
// and untraced blocks of ops on one instance, and the difference between
// their median op times is the tracing overhead, free of the run-to-run
// noise two separate passes would add (see traceBlock).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	block int
}

// on reports whether trace id is recorded.
func (t *tracer) on(traceID int) bool {
	return t != nil && (t.block == 0 || (traceID/t.block)%2 == 1)
}

// overhead returns the median duration of the ops of a phase that were
// traced over that of the ops that were not, minus one. ms[i] is the
// duration of the op with trace id idBase+i.
func (t *tracer) overhead(ms []float64, idBase int) float64 {
	var traced, plain []float64
	for i, d := range ms {
		if t.on(idBase + i) {
			traced = append(traced, d)
		} else {
			plain = append(plain, d)
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return median(traced)/median(plain) - 1
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID, for its children to name as
// their parent; end closes it.
func (t *tracer) begin(name string, traceID, parent int, start time.Time) int {
	if !t.on(traceID) {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, name, traceID, parent, int64(start.Sub(t.epoch)), 0})
	return id
}

func (t *tracer) end(id int, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNs = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// timed runs fn as a span and returns its duration in ms.
func (t *tracer) timed(name string, traceID, parent int, fn func()) float64 {
	start := time.Now()
	id := t.begin(name, traceID, parent, start)
	fn()
	end := time.Now()
	t.end(id, end)
	return float64(end.Sub(start)) / 1e6
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Counts   map[string]float64 `json:"counts"`
	Spans    []span             `json:"spans"`
}

// write stores the spans, with the per-layer counts taken at the same
// boundaries, under dir.
func (t *tracer) write(dir, workload string, seed uint64, counts metricSet) error {
	f := traceFile{Workload: workload, Seed: seed, Counts: map[string]float64{}, Spans: t.spans}
	for name, v := range counts {
		f.Counts[name] = v.Value
	}
	return writeJSON(filepath.Join(dir, "trace-"+workload+".json"), f)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
