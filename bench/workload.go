package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// run executes one pass (set-up, warm, timed phase, checks, and in a
	// traced pass the per-layer probes).
	run func(p *pass) (*passResult, error)
}

// config is what the command line fixes for every workload of a run.
type config struct {
	seed    uint64
	seconds float64 // length of a full timed phase; 0 = the fixed op counts
	scale   float64 // share of the fixed op counts to run (1, or 0.01 for -smoke)
	setups  int     // set-ups per full untraced pass; setup_s is their median
	callers int     // P = min(nproc, 4): the most callers, clients or TCP ranks
	outDir  string
}

// pass is one execution of a workload: untraced at full size for the
// end-to-end metrics, or traced at a quarter of it for the per-layer
// metrics and the tracing overhead.
type pass struct {
	cfg    *config
	share  float64 // share of a full pass's ops (1 or 0.25)
	setups int
	tr     *tracer // nil in an untraced pass
}

func (p *pass) traced() bool { return p.tr != nil }

// traceBlock is how many consecutive ops of a traced timed phase share one
// tracing state. Short blocks put both states through every burst of host
// noise alike; three is coprime to the four batches codec-lookups cycles
// through, so either state sees every batch equally often.
const traceBlock = 3

// beginTimed makes a traced pass trace every other block of its timed
// phase; endTimed takes the tracing overhead from the phase's log and
// turns tracing back on for the probes that follow.
func (p *pass) beginTimed() {
	if p.traced() {
		p.tr.block = traceBlock
	}
}

func (p *pass) endTimed(r *passResult, l *opLog, idBase int) {
	if p.traced() {
		r.overhead = p.tr.overhead(l.ms(), idBase)
		p.tr.block = 0
	}
}

// ops scales one of a workload's fixed op counts to this pass.
func (p *pass) ops(full int) int {
	return max(5, int(math.Round(float64(full)*p.cfg.scale*p.share)))
}

// pool is how many inputs set-up generates for the timed phase: the scaled
// fixed count, or, when the run is bound by -seconds, twice what the
// reference box gets through in that time (the fixed counts take it about
// 10 s), so that the deadline and not the pool ends the phase.
func (p *pass) pool(full int) int {
	if p.cfg.seconds <= 0 {
		return p.ops(full)
	}
	return max(5, int(math.Ceil(2*float64(full)*p.cfg.seconds*p.share/10)))
}

// deadline is how long the timed phase may start new ops; 0 = no limit.
func (p *pass) deadline() time.Duration {
	return time.Duration(p.cfg.seconds * p.share * float64(time.Second))
}

// phaseCount reports the ops of one phase.
type phaseCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func countPhase(attempted, failed int) phaseCount {
	return phaseCount{attempted, attempted - failed, failed}
}

// passResult is what one pass measured.
type passResult struct {
	warm, timed phaseCount
	e2e         metricSet // end-to-end metrics of the timed phase
	layer       metricSet // per-layer metrics; a traced pass fills them
	p50         float64   // median op time of the timed phase, ms
	overhead    float64   // traced over untraced median op time, minus one
	rate        float64   // samples per second of the timed phase
	failures    []string  // correctness checks that failed
}

func newPassResult() *passResult { return &passResult{e2e: metricSet{}, layer: metricSet{}} }

func (r *passResult) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// timing fills the metrics every timed phase has, from its op log.
func (r *passResult) timing(l *opLog, samplesPerOp float64) {
	rate, rateSegs := l.rate(samplesPerOp)
	p50, p50Segs := l.pct(0.50)
	r.rate, r.p50 = rate, p50
	r.e2e.set("samples_per_s", rate, rateSegs...)
	r.e2e.set("latency_ms_p50", p50, p50Segs...)
}

// runOps issues up to n ops in issue order from the given number of
// callers, each keeping one op in flight (a closed loop), and logs every
// op's wall interval. No op starts after the deadline (0 = none); the log
// holds the ops that ran. One caller runs on the calling goroutine. An op
// that returns an error counts as failed. In a traced pass every op is
// also recorded as a root span named name, with trace id idBase+i; op gets
// the span's ID.
func runOps(n int, deadline time.Duration, callers int, tr *tracer, name string, idBase int, op func(caller, i, root int) error) (*opLog, int) {
	l := newOpLog(n)
	due := func() bool { return deadline > 0 && time.Since(l.epoch) >= deadline }
	var failed atomic.Int64
	one := func(caller, i int) {
		t0 := time.Now()
		root := tr.begin(name, idBase+i, 0, t0)
		err := op(caller, i, root)
		t1 := time.Now()
		tr.end(root, t1)
		l.record(i, t0, t1)
		if err != nil {
			failed.Add(1)
		}
	}
	if callers <= 1 {
		i := 0
		for ; i < n && !due(); i++ {
			one(0, i)
		}
		l.truncate(i)
		return l, int(failed.Load())
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !due() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				one(c, i)
			}
		}(c)
	}
	wg.Wait()
	l.truncate(min(n, int(next.Load()))) // every index below the counter ran
	return l, int(failed.Load())
}

// counters is a snapshot of the process's heap allocation and CPU use.
type counters struct {
	mallocs, bytes uint64
	cpuMs          float64
}

func readCounters() counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return counters{m.Mallocs, m.TotalAlloc, float64(cpu) / 1e6}
}

// since returns the growth of every counter since c0.
func (c counters) since(c0 counters) counters {
	return counters{c.mallocs - c0.mallocs, c.bytes - c0.bytes, c.cpuMs - c0.cpuMs}
}

// measured runs fn between two counter snapshots, after a collection so
// that garbage from set-up is not collected on the timed phase's account.
func measured(fn func()) counters {
	runtime.GC()
	c0 := readCounters()
	fn()
	return readCounters().since(c0)
}

// medianSetup runs setup n times, keeps the last instance, and returns the
// median set-up time in seconds. teardown releases an instance that is not
// kept.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var inst T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(inst)
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return inst, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return inst, median(secs), nil
}
