package serve

import (
	"errors"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dlrmcomp/internal/model"
)

// Request is one Score call's arguments: the dense features and one row id
// per table.
type Request struct {
	Dense   []float32
	Indices []int32
}

// Load is what Drive measured.
type Load struct {
	// Scores[i] is request i's score, 0 if it was shed; Latency[i] its
	// round trip through Score, negative if it was shed.
	Scores  []float32
	Latency []time.Duration
	// Shed counts the requests admission control refused.
	Shed int
	// Elapsed is the wall time from the first request to the last reply.
	Elapsed time.Duration
	// Stats holds the counters accrued over the window (Requests, Shed,
	// Batches, Hits, Misses) and the footprints at its end.
	Stats Stats
}

// Drive issues reqs to srv.Score from clients goroutines, each keeping one
// request in flight and taking the next unissued one as soon as its last
// returns: a closed loop, so the offered load follows the server's speed.
// A request shed with ErrOverloaded is counted, not retried; any other
// error stops every client and is returned.
func Drive(srv *Server, reqs []Request, clients int) (*Load, error) {
	l := &Load{Scores: make([]float32, len(reqs)), Latency: make([]time.Duration, len(reqs))}
	errs := make([]error, max(clients, 1))
	var next, shed atomic.Int64
	before := srv.Stats()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				t0 := time.Now()
				score, err := srv.Score(reqs[i].Dense, reqs[i].Indices)
				switch err {
				case nil:
					l.Scores[i], l.Latency[i] = score, time.Since(t0)
				case ErrOverloaded:
					shed.Add(1)
					l.Latency[i] = -1
				default:
					errs[c] = err
					next.Store(int64(len(reqs))) // no client takes another
					return
				}
			}
		}()
	}
	wg.Wait()
	l.Elapsed = time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	l.Shed = int(shed.Load())
	l.Stats = srv.Stats().since(before)
	return l, nil
}

// QPS returns the served requests per second of the window.
func (l *Load) QPS() float64 { return float64(len(l.Latency)-l.Shed) / l.Elapsed.Seconds() }

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of the served requests'
// latencies, 0 if none was served.
func (l *Load) Percentile(p float64) time.Duration {
	var ok []time.Duration
	for _, d := range l.Latency {
		if d >= 0 {
			ok = append(ok, d)
		}
	}
	if len(ok) == 0 {
		return 0
	}
	slices.Sort(ok)
	return ok[int(p*float64(len(ok)-1))]
}

// Reference scores reqs one at a time on an uncached raw server loaded
// from the checkpoint ckpt: the scores compression and caching are held
// to.
func Reference(cfg model.Config, ckpt io.Reader, reqs []Request) ([]float32, error) {
	ref, err := New(cfg, ckpt, Options{ColdCodec: "raw", HotBytes: -1})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	want := make([]float32, len(reqs))
	for i, r := range reqs {
		if want[i], err = ref.Score(r.Dense, r.Indices); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// Parity is a load's scores held against the Reference scores of the same
// stream: how many served requests were compared (shed ones have no
// score), how many differ from the reference in any bit, and the largest
// |score − reference|.
type Parity struct {
	Checked, Mismatched int
	MaxDelta            float64
}

// Compare holds every served request's score against want, the Reference
// scores of the stream Drive issued.
func (l *Load) Compare(want []float32) Parity {
	var p Parity
	for i, got := range l.Scores {
		if l.Latency[i] < 0 {
			continue
		}
		p.Checked++
		if math.Float32bits(got) != math.Float32bits(want[i]) {
			p.Mismatched++
		}
		p.MaxDelta = max(p.MaxDelta, math.Abs(float64(got-want[i])))
	}
	return p
}
