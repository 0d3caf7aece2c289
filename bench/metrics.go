package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric, its unit and the direction that is better.
// Bound is the share by which a median may get worse before it counts as a
// regression (0 = reported, never judged). The timing bounds are as wide
// as they are because the reference box is a shared 2-core VM whose speed
// drifts by up to a quarter over minutes (measured: the same commit's
// train-dense1 median moved 97 -> 121 ms between two sets of ten runs).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// exactBound replaces a metric's bound in -compare when the metric is
// deterministic for a fixed seed and fixed op counts and both files were
// run that way.
const exactBound = 0.01

var exactMetrics = map[string]bool{"compression_ratio": true, "sim_step_us": true, "eval_logloss": true, "resident_mb": true}

// gatedMetrics are the end-to-end metrics every workload reports, so the
// driver of BENCHMARK.json can hold each of them on each workload. An op
// is one Trainer.Step, one Score request, one 64-sample ScoreBatch, or one
// encode+decode round over the 26 tables.
var gatedMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
}

// scopedMetrics are end-to-end metrics the driver cannot hold: those only
// some workloads have (a workload without one reports 0), the tail
// latency, which a two-minute burst of host noise doubles, and the
// compression ratio, which is exact for a seed but whose quartile spread
// over ten seeds is 6-20% (the data differ) against a 25% ceiling on
// bounds. They are measured in the untraced pass like the gated ones, and
// -compare applies their bounds where they are non-zero.
var scopedMetrics = []metricDef{
	{"latency_ms_p99", "ms", "lower", 0.25},          // serve-*
	{"compression_ratio", "x", "higher", exactBound}, // all; 1 without a codec
	{"encode_mb_per_s", "MB/s", "higher", 0.25},      // codec-lookups
	{"decode_mb_per_s", "MB/s", "higher", 0.25},      // codec-lookups
	{"sim_step_us", "us", "lower", exactBound},       // train-*
	{"eval_logloss", "nat", "lower", exactBound},     // train-comm8, train-dense1
	{"resident_mb", "MB", "lower", exactBound},       // serve-*
	{"alloc_kb_per_op", "KB", "lower", 0.10},         // all; differences < 1 KB ignored
	{"failed_share", "ratio", "lower", 0},            // all; any failure is a regression
}

// simBuckets are the labels Cluster.SimTimes can return for a trainer
// step. A label outside this list fails the run, so the list stays honest.
var simBuckets = []string{
	"fwd-a2a", "fwd-a2a-intra", "fwd-a2a-inter",
	"bwd-a2a", "bwd-a2a-intra", "bwd-a2a-inter",
	"allreduce", "compress", "decompress", "mlp", "lookup", "other",
}

// layerMetrics are the per-layer metrics of the traced pass, named
// <module>.<metric>. A layer a workload does not run reports 0.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"scenario.build_ms", "ms", "lower", 0},
		{"criteo.gen_ms_per_batch", "ms", "lower", 0},
		{"adapt.offline_ms", "ms", "lower", 0},
		{"adapt.tables_l", "count", "higher", 0},
		{"adapt.tables_m", "count", "higher", 0},
		{"adapt.tables_s", "count", "lower", 0},
		{"adapt.eb_updates_per_step", "count", "lower", 0},
		{"embedding.lookup_ms_per_step", "ms", "lower", 0},
		{"embedding.sgd_ms_per_step", "ms", "lower", 0},
		{"hybrid.encode_ms_per_step", "ms", "lower", 0},
		{"hybrid.decode_ms_per_step", "ms", "lower", 0},
		{"hybrid.frame_bytes_per_step", "B", "lower", 0},
		{"hybrid.vlz_frame_share", "ratio", "higher", 0},
		{"hybrid.allocs_per_call", "count", "lower", 0},
		{"hybrid.max_err_over_eb", "ratio", "lower", 0},
		{"dist.step_ms_p90", "ms", "lower", 0},
		{"dist.step_cpu_ms", "ms", "lower", 0},
		{"dist.unattributed_cpu_share", "ratio", "lower", 0},
		{"dist.allocs_per_step", "count", "lower", 0},
		{"dist.alloc_bytes_per_step", "B", "lower", 0},
		{"dist.owner_imbalance", "ratio", "lower", 0},
		{"dist.wire_fwd_bytes_per_step", "B", "lower", 0},
		{"dist.wire_bwd_bytes_per_step", "B", "lower", 0},
		{"dist.ckpt_save_ms", "ms", "lower", 0},
		{"dist.ckpt_restore_ms", "ms", "lower", 0},
		{"dist.ckpt_bytes", "B", "lower", 0},
		{"cluster.a2a_small_ms_per_call", "ms", "lower", 0},
		{"cluster.a2a_raw_ms_per_call", "ms", "lower", 0},
		{"cluster.allreduce_ms_per_call", "ms", "lower", 0},
		{"cluster.alloc_bytes_per_call", "B", "lower", 0},
		{"tcptransport.rendezvous_ms", "ms", "lower", 0},
		{"tcptransport.sent_bytes_per_step", "B", "lower", 0},
		{"tcptransport.recv_bytes_per_step", "B", "lower", 0},
		{"tcptransport.frames_per_step", "count", "lower", 0},
		{"tcptransport.send_ms_per_step", "ms", "lower", 0},
		{"tcptransport.recv_ms_per_step", "ms", "lower", 0},
		{"tcptransport.step_ratio_vs_inproc", "ratio", "lower", 0},
	}
	for _, b := range simBuckets {
		ms = append(ms, metricDef{"netmodel.sim." + b + "_us", "us", "lower", 0})
	}
	return append(ms,
		metricDef{"interaction.fwd_ms_per_step", "ms", "lower", 0},
		metricDef{"interaction.bwd_ms_per_step", "ms", "lower", 0},
		metricDef{"nn.mlp_fwd_ms_per_step", "ms", "lower", 0},
		metricDef{"nn.mlp_bwd_ms_per_step", "ms", "lower", 0},
		metricDef{"nn.sgd_ms_per_step", "ms", "lower", 0},
		metricDef{"serve.load_ms", "ms", "lower", 0},
		metricDef{"serve.store.hit_rate", "ratio", "higher", 0},
		metricDef{"serve.store.misses_per_op", "count", "lower", 0},
		metricDef{"serve.store.miss_us", "us", "lower", 0},
		metricDef{"serve.store.cold_ratio", "x", "higher", 0},
		metricDef{"serve.service.overhead_ms_p50", "ms", "lower", 0},
		metricDef{"serve.service.shed", "count", "lower", 0},
		metricDef{"serve.scorer.hot_batch_ms", "ms", "lower", 0},
		metricDef{"serve.caller_scaling", "x", "higher", 0},
		metricDef{"trace.overhead_share", "ratio", "lower", 0},
		metricDef{"trace.spans", "count", "lower", 0},
	)
}()

// value is one reported metric. Segments holds the five per-segment values
// a timing metric was taken from (see opLog); -compare reads their spread.
type value struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Segments []float64 `json:"segments,omitempty"`
}

// metricSet collects values by name and fills in units from the tables.
type metricSet map[string]value

var unitOf = func() map[string]string {
	u := map[string]string{}
	for _, defs := range [][]metricDef{gatedMetrics, scopedMetrics, layerMetrics} {
		for _, d := range defs {
			u[d.Name] = d.Unit
		}
	}
	return u
}()

// set records a metric; a name outside the tables is a bug in the harness.
func (m metricSet) set(name string, v float64, segments ...float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not in the metric tables")
	}
	m[name] = value{Value: v, Unit: unit, Segments: segments}
}

const segments = 5

// opLog holds the wall interval of every op of one phase, indexed in issue
// order, in nanoseconds since the phase started.
type opLog struct {
	epoch      time.Time
	start, end []int64
}

func newOpLog(n int) *opLog {
	return &opLog{epoch: time.Now(), start: make([]int64, n), end: make([]int64, n)}
}

func (l *opLog) n() int { return len(l.start) }

// truncate keeps the first n ops: a phase that its deadline ended early.
func (l *opLog) truncate(n int) { l.start, l.end = l.start[:n], l.end[:n] }

func (l *opLog) record(i int, t0, t1 time.Time) {
	l.start[i] = int64(t0.Sub(l.epoch))
	l.end[i] = int64(t1.Sub(l.epoch))
}

// ms returns every op's duration in milliseconds, in issue order.
func (l *opLog) ms() []float64 {
	out := make([]float64, l.n())
	for i := range out {
		out[i] = float64(l.end[i]-l.start[i]) / 1e6
	}
	return out
}

// segment returns the index range of segment s of the phase's equal cuts.
func (l *opLog) segment(s int) (lo, hi int) {
	return s * l.n() / segments, (s + 1) * l.n() / segments
}

// perSegment returns f of every segment that holds an op.
func (l *opLog) perSegment(f func(lo, hi int) float64) []float64 {
	out := make([]float64, 0, segments)
	for s := 0; s < segments; s++ {
		if lo, hi := l.segment(s); lo < hi {
			out = append(out, f(lo, hi))
		}
	}
	return out
}

// rate returns work per wall second as the median of the segment rates,
// and the segment rates. A segment's wall time runs from its first op's
// start to its last op's end, so concurrent callers are counted once.
func (l *opLog) rate(workPerOp float64) (float64, []float64) {
	rates := l.perSegment(func(lo, hi int) float64 {
		first, last := l.start[lo], l.end[lo]
		for i := lo; i < hi; i++ {
			first, last = min(first, l.start[i]), max(last, l.end[i])
		}
		return workPerOp * float64(hi-lo) / (float64(last-first) / 1e9)
	})
	return median(rates), rates
}

// pct returns percentile p of the op durations in ms over the whole phase,
// and the same percentile of each segment.
func (l *opLog) pct(p float64) (float64, []float64) {
	ms := l.ms()
	return percentile(ms, p), l.perSegment(func(lo, hi int) float64 { return percentile(ms[lo:hi], p) })
}

// percentile returns the value at rank p·(n−1) of xs (which it does not
// reorder), 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
