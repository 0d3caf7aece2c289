package serve

import (
	"errors"
	"fmt"
)

// ErrOverloaded is returned by Score when the intake queue is full: the
// request is shed at admission instead of queueing without bound, so an
// overloaded server degrades by dropping load, not by growing latency and
// memory until everything times out at once.
var ErrOverloaded = errors.New("serve: intake queue full; request shed")

// ErrClosed is returned by Score after Close.
var ErrClosed = errors.New("serve: server closed")

// pending is one in-flight Score request, pooled so the steady-state
// request path allocates nothing.
type pending struct {
	dense []float32
	idx   []int32
	score float32
	err   error
	done  chan struct{}
}

// Score runs one request through admission control and micro-batching:
// enqueue (or shed with ErrOverloaded), join whatever else is waiting in
// the queue when a worker picks it up, score, reply. dense holds the
// DenseFeatures inputs; indices one row id per table. Blocks until the
// score is ready; safe for concurrent use — concurrency is what fills
// batches. A malformed request is rejected here, before it can share a
// batch (and so an error) with anyone else's.
func (s *Server) Score(dense []float32, indices []int32) (float32, error) {
	if len(dense) != s.cfg.DenseFeatures {
		return 0, fmt.Errorf("serve: request has %d dense features, the model wants %d", len(dense), s.cfg.DenseFeatures)
	}
	if len(indices) != len(s.cfg.TableSizes) {
		return 0, fmt.Errorf("serve: request has %d indices, the model has %d tables", len(indices), len(s.cfg.TableSizes))
	}
	for t, idx := range indices {
		if rows := s.cfg.TableSizes[t]; idx < 0 || int(idx) >= rows {
			return 0, fmt.Errorf("serve: index %d out of range [0,%d) in table %d", idx, rows, t)
		}
	}
	p, _ := s.pool.Get().(*pending)
	if p == nil {
		p = &pending{done: make(chan struct{}, 1)}
	}
	p.dense = append(p.dense[:0], dense...)
	p.idx = append(p.idx[:0], indices...)
	p.err = nil

	// The read lock pins the closing flag across the enqueue, so a
	// request can never land in the queue after Close's poison pills
	// (which would strand the caller on p.done).
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		s.pool.Put(p)
		return 0, ErrClosed
	}
	select {
	case s.intake <- p:
		s.closeMu.RUnlock()
	default:
		s.closeMu.RUnlock()
		s.shed.Add(1)
		s.pool.Put(p)
		return 0, ErrOverloaded
	}
	<-p.done
	score, err := p.score, p.err
	s.pool.Put(p)
	return score, err
}

// Close stops the batcher workers (flushing any batch in flight) and
// fails subsequent Score calls with ErrClosed. Idempotent. ScoreBatch
// stays usable — it holds no service state.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	// One poison pill per worker. The intake channel is FIFO, so every
	// request admitted before the flag flipped is received — and
	// answered — before a worker sees its pill.
	for i := 0; i < s.opts.Workers; i++ {
		s.intake <- nil
	}
	for i := 0; i < s.opts.Workers; i++ {
		<-s.workers
	}
}

// worker is one batcher goroutine: block for the first request, take
// whatever else is already queued (up to MaxBatch) without waiting, score
// the batch on a private scorer, reply to every caller. There is no timer:
// an idle server scores a lone request at once, and requests that arrive
// while a batch is being scored wait in the queue and form the next one,
// so batches grow with the backlog, not with a clock. On exit the scorer
// joins the idle pool, so ScoreBatch after Close can reuse it.
func (s *Server) worker(sc *scorer) {
	defer func() { s.workers <- struct{}{} }()
	defer func() { s.scorers <- sc }()
	batch := make([]*pending, 0, s.opts.MaxBatch)
	for {
		p := <-s.intake
		if p == nil {
			return
		}
		batch = append(batch[:0], p)
		poisoned := false
	drain:
		for len(batch) < s.opts.MaxBatch {
			select {
			case q := <-s.intake:
				if q == nil {
					poisoned = true
					break drain
				}
				batch = append(batch, q)
			default:
				break drain
			}
		}
		s.runBatch(sc, batch)
		if poisoned {
			return
		}
	}
}

// runBatch assembles the coalesced requests into sc's batch workspaces,
// scores them, and replies.
func (s *Server) runBatch(sc *scorer, batch []*pending) {
	s.batches.Add(1)
	n := len(batch)
	sc.dense = sc.dense.Resize(n, s.cfg.DenseFeatures)
	for t := range sc.cols {
		if cap(sc.cols[t]) < n {
			sc.cols[t] = make([]int32, n)
		}
		sc.cols[t] = sc.cols[t][:n]
	}
	if cap(sc.out) < n {
		sc.out = make([]float32, n)
	}
	sc.out = sc.out[:n]
	for i, p := range batch {
		copy(sc.dense.Row(i), p.dense)
		for t := range sc.cols {
			sc.cols[t][i] = p.idx[t]
		}
	}
	err := s.scoreInto(sc, sc.dense, sc.cols, sc.out)
	for i, p := range batch {
		p.score, p.err = sc.out[i], err
		p.done <- struct{}{}
	}
}
