package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dlrmcomp/internal/netmodel"
)

// MetadataBytesPerPair is the size-exchange header each rank sends every
// peer before a variable-size all-to-all (stage ② of the paper's pipeline).
const MetadataBytesPerPair = 8

// A2AAlgo is the all-to-all algorithm parameter of IAllToAllV. It has one
// value, A2AAuto, and the route does not read it: every all-to-all posts
// its payloads straight to their destinations, and rank 0 prices it with
// Net.TwoPhaseAllToAllCost.
type A2AAlgo int

// A2AAuto is the only A2AAlgo value.
const A2AAuto A2AAlgo = 0

// Cluster is a process group. All collectives move data through the
// Transport endpoints handed to the constructor, so the same collective
// code runs over the in-process channel fabric (New) and over a real wire
// (NewOverTransport with a tcptransport endpoint). Under a distributed
// fabric the Cluster hosts only the ranks whose endpoints live in this
// process; Run spawns exactly those.
type Cluster struct {
	N   int
	Net netmodel.Topology

	// nodes is how many nodes the topology spans for N ranks.
	nodes int

	// eps and scratch are indexed by rank id; nil for ranks hosted in other
	// processes. local lists the hosted ranks in ascending order.
	eps     []Transport
	scratch []*rankScratch
	local   []int

	mu      sync.Mutex
	simTime map[string]time.Duration
	faults  *faultInjector
}

// rankScratch is one hosted rank's persistent collective workspace: every
// buffer a collective sends from (or, on rank 0, aggregates into) lives
// here so the steady-state hot path allocates nothing.
type rankScratch struct {
	sizeRow []byte // payload-size row, sent to rank 0 each all-to-all
	sendBuf []byte // allreduce contribution, grown on demand

	// Rank 0 only: the global payload-size matrix the cost model reads,
	// and the response buffers for the star collectives.
	sizes   [][]int64
	respBuf []byte // allreduce result broadcast (status byte + floats)
	gather  []byte // length-prefixed concatenation of all GatherAll blobs
}

// layout checks the topology's rank-to-node map for n ranks: every rank
// lands on one of the nodes it reports, and no node is left empty. It
// returns the node count.
func layout(n int, net netmodel.Topology) (int, error) {
	nodes := net.Nodes(n)
	if nodes < 1 {
		return 0, fmt.Errorf("cluster: topology reports %d nodes for %d ranks", nodes, n)
	}
	used := make([]bool, nodes)
	for r := 0; r < n; r++ {
		nd := net.NodeOf(r)
		if nd < 0 || nd >= nodes {
			return 0, fmt.Errorf("cluster: topology maps rank %d to node %d outside [0,%d)", r, nd, nodes)
		}
		used[nd] = true
	}
	for nd, ok := range used {
		if !ok {
			return 0, fmt.Errorf("cluster: topology leaves node %d empty for %d ranks", nd, n)
		}
	}
	return nodes, nil
}

// newCluster assembles a cluster over per-rank endpoints (nil entries are
// ranks hosted elsewhere).
func newCluster(eps []Transport, net netmodel.Topology) (*Cluster, error) {
	n := len(eps)
	if net == nil {
		net = netmodel.Slingshot10()
	}
	nodes, err := layout(n, net)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		N:       n,
		Net:     net,
		nodes:   nodes,
		eps:     eps,
		scratch: make([]*rankScratch, n),
		simTime: make(map[string]time.Duration),
	}
	for id, ep := range eps {
		if ep == nil {
			continue
		}
		c.local = append(c.local, id)
		scr := &rankScratch{sizeRow: make([]byte, sizeRowBytes(n))}
		if id == 0 {
			scr.sizes = make([][]int64, n)
			for i := range scr.sizes {
				scr.sizes[i] = make([]int64, n)
			}
		}
		c.scratch[id] = scr
	}
	if len(c.local) == 0 {
		return nil, errors.New("cluster: no local endpoints")
	}
	return c, nil
}

// New creates an in-process cluster of n ranks over the given topology;
// nil means the flat netmodel.Slingshot10(). All n ranks are hosted
// locally, communicating over the in-process channel fabric.
func New(n int, net netmodel.Topology) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: invalid rank count %d", n))
	}
	c, err := newCluster(NewInprocFabric(n), net)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// NewOverTransport creates a cluster hosting the single rank behind the
// given endpoint; the other World()-1 ranks live in other processes (their
// endpoints dialed the same fabric). nil net means netmodel.Slingshot10().
func NewOverTransport(tr Transport, net netmodel.Topology) (*Cluster, error) {
	if tr == nil {
		return nil, errors.New("cluster: nil transport")
	}
	n, rank := tr.World(), tr.Rank()
	if n <= 0 || rank < 0 || rank >= n {
		return nil, fmt.Errorf("cluster: transport reports rank %d of world %d", rank, n)
	}
	eps := make([]Transport, n)
	eps[rank] = tr
	return newCluster(eps, net)
}

// Nodes returns how many nodes the topology spans for this cluster size.
func (c *Cluster) Nodes() int { return c.nodes }

// Local returns the ranks hosted in this process, in ascending order.
func (c *Cluster) Local() []int { return c.local }

// Distributed reports whether some ranks live in other processes.
func (c *Cluster) Distributed() bool { return len(c.local) != c.N }

// Close releases every hosted endpoint. On the in-process fabric this
// tears down the whole group; on a wire transport it runs the graceful
// shutdown handshake with the peers.
func (c *Cluster) Close() error {
	var errs []error
	for _, id := range c.local {
		if err := c.eps[id].Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Run executes fn on every hosted rank concurrently and blocks until all
// return. Under a distributed fabric that is exactly one rank; the caller
// is responsible for running the same fn in the peer processes.
func (c *Cluster) Run(fn func(r *Rank)) {
	var wg sync.WaitGroup
	for _, id := range c.local {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fn(&Rank{ID: id, c: c, tr: c.eps[id], scr: c.scratch[id]})
		}(id)
	}
	wg.Wait()
}

// SimTime returns the accumulated simulated duration of the labelled bucket.
func (c *Cluster) SimTime(label string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simTime[label]
}

// SimTimes returns a copy of all buckets.
func (c *Cluster) SimTimes() map[string]time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]time.Duration, len(c.simTime))
	for k, v := range c.simTime {
		out[k] = v
	}
	return out
}

// AddSimTime charges a duration to a bucket (used by ranks to account
// modelled compute such as MLP or codec kernels; charged once per step by
// rank 0 to represent the parallel device fleet).
func (c *Cluster) AddSimTime(label string, d time.Duration) {
	c.mu.Lock()
	c.simTime[label] += d
	c.mu.Unlock()
}

// chargeA2A attributes an all-to-all's cost. Multi-node topologies split
// into per-link "<label>-intra" / "<label>-inter" buckets (zero components
// are skipped); flat and single-node clusters keep the plain label.
func (c *Cluster) chargeA2A(label string, cost netmodel.LinkCost) {
	if c.nodes > 1 {
		if cost.Intra > 0 {
			c.AddSimTime(label+"-intra", cost.Intra)
		}
		if cost.Inter > 0 {
			c.AddSimTime(label+"-inter", cost.Inter)
		}
		return
	}
	c.AddSimTime(label, cost.Total())
}

// ChargeLinkCost charges a modelled link cost to the labelled bucket with
// the same per-link attribution the collectives use (multi-node topologies
// split into "<label>-intra"/"<label>-inter"). It is how out-of-band
// modelled traffic — e.g. the elastic reshard transfer — lands in the
// sim-time profile.
func (c *Cluster) ChargeLinkCost(label string, cost netmodel.LinkCost) {
	c.chargeA2A(label, cost)
}

// ResetSimTime clears all buckets.
func (c *Cluster) ResetSimTime() {
	c.mu.Lock()
	c.simTime = make(map[string]time.Duration)
	c.mu.Unlock()
}

// Rank is one device's handle onto the cluster.
type Rank struct {
	ID  int
	c   *Cluster
	tr  Transport
	scr *rankScratch
}

// Barrier blocks until every rank reaches it. It is a star through
// rank 0 over Send and Recv: each peer sends rank 0 an empty message and
// waits for an empty release; rank 0 receives one message from every peer
// in rank order, then releases each. Per-pair FIFO orders both behind
// whatever the same pair sent before, so a barrier message never
// overtakes a collective's payload. A peer that leaves before arriving
// fails rank 0's Recv, and rank 0's failure reaches the others as an
// error, not a hang.
func (r *Rank) Barrier() error {
	if r.ID != 0 {
		if err := r.tr.Send(0, nil); err != nil {
			return err
		}
		_, err := r.tr.Recv(0)
		return err
	}
	for from := 1; from < r.c.N; from++ {
		if _, err := r.tr.Recv(from); err != nil {
			return err
		}
	}
	for to := 1; to < r.c.N; to++ {
		if err := r.tr.Send(to, nil); err != nil {
			return err
		}
	}
	return nil
}

// postSizeRow publishes this rank's payload-size row for rank 0's cost
// accounting: rank 0 fills its own matrix row in place, everyone else
// sends the encoded row ahead of the payloads (per-pair FIFO delivers it
// first).
func (r *Rank) postSizeRow(send [][]byte) error {
	if r.ID == 0 {
		for to, buf := range send {
			r.scr.sizes[0][to] = int64(len(buf))
		}
		return nil
	}
	encodeSizeRow(r.scr.sizeRow, send)
	return r.tr.Send(0, r.scr.sizeRow)
}

// gatherSizeRows (rank 0 only) receives every peer's size row into the
// global matrix.
func (r *Rank) gatherSizeRows() error {
	for from := 1; from < r.c.N; from++ {
		row, err := r.tr.Recv(from)
		if err != nil {
			return err
		}
		if err := decodeSizeRow(r.scr.sizes[from], row); err != nil {
			return err
		}
	}
	return nil
}

// exchange runs the payload movement of one all-to-all and returns the
// received buffers plus, on rank 0 only, the collective's simulated cost
// (including the metadata exchange when variable). No sim time is charged
// here — the caller decides when the cost lands (immediately for the
// synchronous collectives, at Await for the nonblocking ones).
//
// Every payload goes straight to its destination rank. The price is the
// hierarchical two-phase all-to-all's (Net.TwoPhaseAllToAllCost, which is
// the direct exchange's AllToAllCost on flat and single-node topologies),
// computed once on rank 0 from the global payload-size matrix: the model
// prices the staged route a multi-node fabric would take, and on one host
// the bytes need not take it. The trailing barrier makes the collective a
// fleet-wide synchronization point, which is what allows callers to reuse
// their send buffers one collective later even though the in-process
// fabric delivers by reference.
func (r *Rank) exchange(send [][]byte, variable bool) ([][]byte, netmodel.LinkCost, error) {
	c := r.c
	if len(send) != c.N {
		panic(fmt.Sprintf("cluster: rank %d sent %d buffers for %d ranks", r.ID, len(send), c.N))
	}
	var cost netmodel.LinkCost
	if err := r.postSizeRow(send); err != nil {
		return nil, cost, err
	}
	for to := 0; to < c.N; to++ {
		if to == r.ID {
			continue
		}
		if err := r.tr.Send(to, send[to]); err != nil {
			return nil, cost, err
		}
	}

	if r.ID == 0 {
		if err := r.gatherSizeRows(); err != nil {
			return nil, cost, err
		}
		cost = c.Net.TwoPhaseAllToAllCost(r.scr.sizes)
		if variable {
			cost = cost.Add(c.Net.MetadataCost(c.N, MetadataBytesPerPair))
		}
	}

	recv := make([][]byte, c.N)
	recv[r.ID] = send[r.ID]
	for from := 0; from < c.N; from++ {
		if from == r.ID {
			continue
		}
		buf, err := r.tr.Recv(from)
		if err != nil {
			return nil, cost, err
		}
		recv[from] = buf
	}
	if err := r.Barrier(); err != nil {
		return nil, cost, err
	}
	return recv, cost, nil
}

// reduce runs the data movement of one allreduce (x holds the global sum on
// return) and returns, on rank 0 only, the collective's simulated cost.
//
// The reduction is bitwise deterministic: rank 0 folds the contributions in
// rank order — seed zero, then rank 0's own part, then rank 1's, … —
// and broadcasts the result. Floating-point addition is not associative, so
// an accumulate-on-arrival scheme would make training results depend on
// scheduling; the fixed fold order keeps every run bit-identical.
//
// A length mismatch between ranks is reported as an error on every rank
// (rank 0 detects it and broadcasts an error verdict instead of a result),
// never as a deadlock.
func (r *Rank) reduce(x []float32) (time.Duration, error) {
	c := r.c
	if r.ID != 0 {
		// Contribute, then adopt rank 0's verdict.
		r.scr.sendBuf = growBytes(r.scr.sendBuf, 4*len(x))
		part := r.scr.sendBuf
		for i, v := range x {
			binary.LittleEndian.PutUint32(part[4*i:], math.Float32bits(v))
		}
		if err := r.tr.Send(0, part); err != nil {
			return 0, err
		}
		resp, err := r.tr.Recv(0)
		if err != nil {
			return 0, err
		}
		if len(resp) < 1 {
			return 0, errors.New("cluster: empty allreduce response")
		}
		if resp[0] != 0 {
			return 0, errors.New(string(resp[1:]))
		}
		if len(resp) != 1+4*len(x) {
			return 0, fmt.Errorf("cluster: allreduce result carries %d bytes, rank %d wants %d", len(resp)-1, r.ID, 4*len(x))
		}
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(resp[1+4*i:]))
		}
		return 0, nil
	}

	// Rank 0 reduces in rank order into its own buffer: deterministic and
	// O(N·len) total (a fleet-wide reduction would be O(N²·len)). The
	// explicit zero seed reproduces the historical fold exactly, including
	// its treatment of signed zeros.
	var reduceErr error
	for i := range x {
		x[i] = 0 + x[i]
	}
	for from := 1; from < c.N; from++ {
		part, err := r.tr.Recv(from)
		if err != nil {
			return 0, err
		}
		if len(part) != 4*len(x) {
			if reduceErr == nil {
				reduceErr = fmt.Errorf("cluster: allreduce length mismatch: rank %d sent %d elements, rank 0 sent %d",
					from, len(part)/4, len(x))
			}
			continue // keep draining so every peer gets a verdict
		}
		if reduceErr == nil {
			for i := range x {
				x[i] += math.Float32frombits(binary.LittleEndian.Uint32(part[4*i:]))
			}
		}
	}

	// Broadcast the result — or the error, so no peer is left blocking.
	var resp []byte
	if reduceErr != nil {
		msg := reduceErr.Error()
		r.scr.respBuf = growBytes(r.scr.respBuf, 1+len(msg))
		resp = r.scr.respBuf
		resp[0] = 1
		copy(resp[1:], msg)
	} else {
		r.scr.respBuf = growBytes(r.scr.respBuf, 1+4*len(x))
		resp = r.scr.respBuf
		resp[0] = 0
		for i, v := range x {
			binary.LittleEndian.PutUint32(resp[1+4*i:], math.Float32bits(v))
		}
	}
	for to := 1; to < c.N; to++ {
		if err := r.tr.Send(to, resp); err != nil {
			return 0, err
		}
	}
	if reduceErr != nil {
		return 0, reduceErr
	}
	return c.Net.AllReduceTime(c.N, int64(len(x)*4)), nil
}

// GatherAll delivers every rank's blob to every rank: into (length N, the
// caller's persistent slot table) holds rank i's blob at index i on
// return. The slots alias transport-owned memory valid until the next
// GatherAll. It is the control-plane allgather the distributed trainer
// uses to agree on per-step statistics and on whether the step failed;
// it charges no simulated time.
func (r *Rank) GatherAll(blob []byte, into [][]byte) error {
	c := r.c
	if len(into) != c.N {
		return fmt.Errorf("cluster: GatherAll got %d slots for %d ranks", len(into), c.N)
	}
	var all []byte
	if r.ID == 0 {
		// Collect every contribution before touching the bundle buffer: a
		// peer's send proves it consumed the previous broadcast, so only
		// after all N-1 receives is rewriting the (alias-shared) bundle safe.
		into[0] = blob
		for from := 1; from < c.N; from++ {
			var err error
			if into[from], err = r.tr.Recv(from); err != nil {
				return err
			}
		}
		buf := r.scr.gather[:0]
		for _, b := range into {
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
			buf = append(buf, hdr[:]...)
			buf = append(buf, b...)
		}
		r.scr.gather = buf
		for to := 1; to < c.N; to++ {
			if err := r.tr.Send(to, buf); err != nil {
				return err
			}
		}
		all = buf
	} else {
		if err := r.tr.Send(0, blob); err != nil {
			return err
		}
		var err error
		if all, err = r.tr.Recv(0); err != nil {
			return err
		}
	}
	return splitGatherBundle(all, into)
}

// splitGatherBundle parses a GatherAll bundle — one u32 little-endian
// length then that many bytes, per slot — into into, which must end up
// exactly filled: each slot aliases its bytes of all, and a short, long or
// truncated bundle is an error.
func splitGatherBundle(all []byte, into [][]byte) error {
	for i := range into {
		if len(all) < 4 {
			return fmt.Errorf("cluster: truncated GatherAll bundle at slot %d", i)
		}
		n := binary.LittleEndian.Uint32(all)
		all = all[4:]
		if uint64(len(all)) < uint64(n) {
			return fmt.Errorf("cluster: GatherAll slot %d wants %d bytes, have %d", i, n, len(all))
		}
		into[i] = all[:n]
		all = all[n:]
	}
	if len(all) != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after GatherAll bundle", len(all))
	}
	return nil
}

// growBytes returns buf resized to n bytes, reallocating only on growth.
func growBytes(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}
