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

// A2AAlgo selects the all-to-all algorithm for one collective.
type A2AAlgo int

const (
	// A2AAuto picks the two-phase hierarchical algorithm whenever the
	// topology spans more than one node, and the direct exchange otherwise.
	A2AAuto A2AAlgo = iota
	// A2ADirect posts every payload straight to its destination rank.
	A2ADirect
	// A2ATwoPhase stages cross-node payloads through node leaders. On a
	// single-node (or flat) topology it degenerates to A2ADirect.
	A2ATwoPhase
)

// String returns the parseable name of the algorithm.
func (a A2AAlgo) String() string {
	switch a {
	case A2ADirect:
		return "direct"
	case A2ATwoPhase:
		return "twophase"
	default:
		return "auto"
	}
}

// ParseA2AAlgo maps a configuration string onto an A2AAlgo. The empty
// string selects A2AAuto, mirroring the zero value.
func ParseA2AAlgo(s string) (A2AAlgo, error) {
	switch s {
	case "", "auto":
		return A2AAuto, nil
	case "direct":
		return A2ADirect, nil
	case "twophase", "two-phase":
		return A2ATwoPhase, nil
	}
	return A2AAuto, fmt.Errorf("cluster: unknown all-to-all algorithm %q (want auto, direct, or twophase)", s)
}

// Cluster is a process group. All collectives move data through the
// Transport endpoints handed to the constructor, so the same collective
// code runs over the in-process channel fabric (New) and over a real wire
// (NewOverTransport with a tcptransport endpoint). Under a distributed
// fabric the Cluster hosts only the ranks whose endpoints live in this
// process; Run spawns exactly those.
type Cluster struct {
	N   int
	Net netmodel.Topology

	// Topology layout, precomputed at construction: rank -> node, node ->
	// leader rank (the lowest rank in the node).
	nodes   int
	nodeOf  []int
	leaders []int

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
	flagBuf []byte // 1-byte OrFlag contribution
	sendBuf []byte // allreduce contribution, grown on demand
	stage   []int  // two-phase all-to-all: bytes staged per bundle

	// Rank 0 only: the global payload-size matrix the cost model reads,
	// and the response buffers for the star collectives.
	sizes    [][]int64
	respBuf  []byte // allreduce result broadcast (status byte + floats)
	flagResp []byte // 1-byte OrFlag verdict
	gather   []byte // length-prefixed concatenation of all GatherAll blobs
}

// layout computes the node layout for n ranks over net.
func layout(n int, net netmodel.Topology) (nodes int, nodeOf, leaders []int, err error) {
	nodes = net.Nodes(n)
	if nodes < 1 {
		return 0, nil, nil, fmt.Errorf("cluster: topology reports %d nodes for %d ranks", nodes, n)
	}
	nodeOf = make([]int, n)
	leaders = make([]int, nodes)
	for i := range leaders {
		leaders[i] = -1
	}
	for r := 0; r < n; r++ {
		nd := net.NodeOf(r)
		if nd < 0 || nd >= nodes {
			return 0, nil, nil, fmt.Errorf("cluster: topology maps rank %d to node %d outside [0,%d)", r, nd, nodes)
		}
		nodeOf[r] = nd
		if leaders[nd] == -1 {
			leaders[nd] = r
		}
	}
	for nd, l := range leaders {
		if l == -1 {
			return 0, nil, nil, fmt.Errorf("cluster: topology leaves node %d empty for %d ranks", nd, n)
		}
	}
	return nodes, nodeOf, leaders, nil
}

// newCluster assembles a cluster over per-rank endpoints (nil entries are
// ranks hosted elsewhere).
func newCluster(eps []Transport, net netmodel.Topology) (*Cluster, error) {
	n := len(eps)
	if net == nil {
		net = netmodel.Slingshot10()
	}
	nodes, nodeOf, leaders, err := layout(n, net)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		N:       n,
		Net:     net,
		nodes:   nodes,
		nodeOf:  nodeOf,
		leaders: leaders,
		eps:     eps,
		scratch: make([]*rankScratch, n),
		simTime: make(map[string]time.Duration),
	}
	for id, ep := range eps {
		if ep == nil {
			continue
		}
		c.local = append(c.local, id)
		scr := &rankScratch{
			sizeRow: make([]byte, sizeRowBytes(n)),
			flagBuf: make([]byte, 1),
			stage:   make([]int, n),
		}
		if id == 0 {
			scr.sizes = make([][]int64, n)
			for i := range scr.sizes {
				scr.sizes[i] = make([]int64, n)
			}
			scr.flagResp = make([]byte, 1)
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

// Barrier blocks until every rank reaches it.
func (r *Rank) Barrier() error { return r.tr.Barrier() }

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
func (r *Rank) exchange(send [][]byte, variable bool, algo A2AAlgo) ([][]byte, netmodel.LinkCost, error) {
	c := r.c
	if len(send) != c.N {
		panic(fmt.Sprintf("cluster: rank %d sent %d buffers for %d ranks", r.ID, len(send), c.N))
	}
	if algo != A2ADirect && c.nodes > 1 {
		return r.twoPhase(send, variable)
	}
	return r.direct(send, variable)
}

// direct implements the single-phase exchange: every payload goes straight
// to its destination rank. The trailing barrier makes the collective a
// fleet-wide synchronization point, which is what allows callers to reuse
// their send buffers one collective later even though the in-process
// fabric delivers by reference.
func (r *Rank) direct(send [][]byte, variable bool) ([][]byte, netmodel.LinkCost, error) {
	c := r.c
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

	// Rank 0 computes the simulated cost once, from global knowledge of
	// the pairwise payload matrix.
	if r.ID == 0 {
		if err := r.gatherSizeRows(); err != nil {
			return nil, cost, err
		}
		cost = c.Net.AllToAllCost(r.scr.sizes)
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
	if err := r.tr.Barrier(); err != nil {
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
// scheduling; the fixed fold order keeps every run — and the
// synchronous-vs-pipelined driver pair — bit-identical.
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

// OrFlag is a logical-OR allreduce over one boolean: it returns true on
// every rank iff any rank passed true. It models the control-plane flag
// exchange a real trainer uses to agree on aborting a step, so it charges
// no simulated time.
func (r *Rank) OrFlag(v bool) (bool, error) {
	c := r.c
	if r.ID != 0 {
		r.scr.flagBuf[0] = 0
		if v {
			r.scr.flagBuf[0] = 1
		}
		if err := r.tr.Send(0, r.scr.flagBuf); err != nil {
			return false, err
		}
		resp, err := r.tr.Recv(0)
		if err != nil {
			return false, err
		}
		if len(resp) != 1 {
			return false, fmt.Errorf("cluster: OrFlag verdict is %d bytes", len(resp))
		}
		return resp[0] != 0, nil
	}
	out := v
	for from := 1; from < c.N; from++ {
		flag, err := r.tr.Recv(from)
		if err != nil {
			return false, err
		}
		if len(flag) != 1 {
			return false, fmt.Errorf("cluster: OrFlag contribution from rank %d is %d bytes", from, len(flag))
		}
		out = out || flag[0] != 0
	}
	r.scr.flagResp[0] = 0
	if out {
		r.scr.flagResp[0] = 1
	}
	for to := 1; to < c.N; to++ {
		if err := r.tr.Send(to, r.scr.flagResp); err != nil {
			return false, err
		}
	}
	return out, nil
}

// GatherAll delivers every rank's blob to every rank: into (length N, the
// caller's persistent slot table) holds rank i's blob at index i on
// return. The slots alias transport-owned memory valid until the next
// GatherAll. It is the control-plane allgather the distributed trainer
// uses to agree on per-step statistics; like OrFlag it charges no
// simulated time.
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
	for i := 0; i < c.N; i++ {
		if len(all) < 4 {
			return fmt.Errorf("cluster: truncated GatherAll bundle at slot %d", i)
		}
		n := int(binary.LittleEndian.Uint32(all))
		all = all[4:]
		if len(all) < n {
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
