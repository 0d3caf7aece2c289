package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dlrmcomp/internal/netmodel"
	"dlrmcomp/internal/tensor"
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
// buffer a collective sends from lives here, so the steady-state hot path
// allocates nothing. Each is rewritten only after every reader has sent
// this rank a message that follows its last read of it: rank 0's payload
// for sizeRow, every peer's round-2 message for part, and every peer's
// next round-1 message for sum.
type rankScratch struct {
	sizeRow []byte    // payload-size row, sent to rank 0 each all-to-all
	out, in [][]byte  // one round's message to and from each rank (length N)
	part    []byte    // allreduce round 1: every chunk of x but this rank's
	sum     []byte    // allreduce round 2: verdict byte, then the summed chunk
	fold    []float32 // allreduce: the running sum of the ranks before this one
	sizes   [][]int64 // rank 0 only: the global payload-size matrix
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
		scr := &rankScratch{
			sizeRow: make([]byte, sizeRowBytes(n)),
			out:     make([][]byte, n),
			in:      make([][]byte, n),
		}
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

// ChargeLinkCost charges a modelled link cost to the labelled bucket:
// multi-node topologies split it into per-link "<label>-intra" /
// "<label>-inter" buckets (zero components are skipped); flat and
// single-node clusters keep the plain label. It is how every all-to-all's
// cost lands, and how out-of-band modelled traffic (e.g. the elastic
// reshard transfer) reaches the sim-time profile.
func (c *Cluster) ChargeLinkCost(label string, cost netmodel.LinkCost) {
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

// sendAll sends send[to] to every other rank, in rank order.
func (r *Rank) sendAll(send [][]byte) error {
	for to, buf := range send {
		if to == r.ID {
			continue
		}
		if err := r.tr.Send(to, buf); err != nil {
			return err
		}
	}
	return nil
}

// recvAll receives one message from every other rank, in rank order, into
// recv (length N); recv[r.ID] is own.
func (r *Rank) recvAll(recv [][]byte, own []byte) error {
	for from := range recv {
		if from == r.ID {
			recv[from] = own
			continue
		}
		var err error
		if recv[from], err = r.tr.Recv(from); err != nil {
			return err
		}
	}
	return nil
}

// gatherSizes moves every rank's payload-size row to rank 0, which holds
// the global matrix its cost model reads on return. Rank 0 reads every row
// before it sends a payload, and a peer leaves the all-to-all only with
// rank 0's payload in hand, so no peer rewrites its reused sizeRow before
// rank 0 has read it.
func (r *Rank) gatherSizes(send [][]byte) error {
	if r.ID != 0 {
		encodeSizeRow(r.scr.sizeRow, send)
		return r.tr.Send(0, r.scr.sizeRow)
	}
	for to, buf := range send {
		r.scr.sizes[0][to] = int64(len(buf))
	}
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
// the bytes need not take it. No barrier follows: a rank may leave while
// peers still read the payloads it sent, which on the in-process fabric
// alias its send buffers. The caller keeps those buffers unchanged until
// a later collective that every peer joins only after landing this one.
func (r *Rank) exchange(send [][]byte, variable bool) ([][]byte, netmodel.LinkCost, error) {
	c := r.c
	if len(send) != c.N {
		panic(fmt.Sprintf("cluster: rank %d sent %d buffers for %d ranks", r.ID, len(send), c.N))
	}
	var cost netmodel.LinkCost
	if err := r.gatherSizes(send); err != nil {
		return nil, cost, err
	}
	if r.ID == 0 {
		cost = c.Net.TwoPhaseAllToAllCost(r.scr.sizes)
		if variable {
			cost = cost.Add(c.Net.MetadataCost(c.N, MetadataBytesPerPair))
		}
	}
	recv := make([][]byte, c.N)
	if err := r.sendAll(send); err != nil {
		return nil, cost, err
	}
	if err := r.recvAll(recv, send[r.ID]); err != nil {
		return nil, cost, err
	}
	return recv, cost, nil
}

// chunk returns the bounds of rank j's chunk of an n-element allreduce
// vector: the first n mod N chunks are one element longer.
func (c *Cluster) chunk(j, n int) (lo, hi int) {
	q, m := n/c.N, n%c.N
	lo = j*q + min(j, m)
	hi = lo + q
	if j < m {
		hi++
	}
	return lo, hi
}

// reduce runs the data movement of one allreduce (x holds the global sum on
// return) and returns, on rank 0 only, the collective's simulated cost.
//
// It is a reduce-scatter then an allgather (Thakur, Rabenseifner and
// Gropp, "Optimization of Collective Communication Operations in MPICH",
// IJHPCA 2005), each one symmetric round. Round 1 sends chunk j of x to
// rank j. Rank j folds its chunk from +0 in rank order, the running sum
// always the left operand: 0 + x0 + x1 + … for every element, whatever
// the arrival order, so training stays bit-identical across runs and
// transports. Round 2 sends every rank the verdict byte 0 and the summed
// chunk, or 1 and a message when a chunk arrived at the wrong length; each
// rank returns the first error in rank order, so a length mismatch is an
// error on every rank, never a hang.
func (r *Rank) reduce(x []float32) (time.Duration, error) {
	c, scr := r.c, r.scr
	scr.part = scr.part[:0]
	for j := range scr.out {
		if j != r.ID {
			lo, hi := c.chunk(j, len(x))
			o := len(scr.part)
			scr.part = tensor.AppendFloats(scr.part, x[lo:hi])
			scr.out[j] = scr.part[o:]
		}
	}
	if err := r.sendAll(scr.out); err != nil {
		return 0, err
	}
	if err := r.recvAll(scr.in, nil); err != nil {
		return 0, err
	}

	lo, hi := c.chunk(r.ID, len(x))
	mine := x[lo:hi]
	scr.sum = append(scr.sum[:0], 0)
	for from, part := range scr.in {
		if from != r.ID && len(part) != 4*len(mine) {
			scr.sum[0] = 1
			scr.sum = fmt.Appendf(scr.sum, "cluster: allreduce length mismatch: rank %d sent %d bytes of rank %d's chunk, which holds %d elements",
				from, len(part), r.ID, len(mine))
			break
		}
	}
	if scr.sum[0] == 0 {
		fold := append(scr.fold[:0], make([]float32, len(mine))...)
		scr.fold = fold
		for from := 0; from < r.ID; from++ {
			addFloats(fold, scr.in[from])
		}
		for i, v := range mine {
			mine[i] = fold[i] + v
		}
		for from := r.ID + 1; from < c.N; from++ {
			addFloats(mine, scr.in[from])
		}
		scr.sum = tensor.AppendFloats(scr.sum, mine)
	}

	for j := range scr.out {
		scr.out[j] = scr.sum
	}
	if err := r.sendAll(scr.out); err != nil {
		return 0, err
	}
	if err := r.recvAll(scr.in, scr.sum); err != nil {
		return 0, err
	}
	for _, v := range scr.in {
		if len(v) == 0 {
			return 0, errors.New("cluster: empty allreduce verdict")
		}
		if v[0] != 0 {
			return 0, errors.New(string(v[1:]))
		}
	}
	for j, v := range scr.in {
		if j == r.ID {
			continue
		}
		lo, hi := c.chunk(j, len(x))
		if err := tensor.FloatsFrom(x[lo:hi], v[1:]); err != nil {
			return 0, err
		}
	}
	if r.ID != 0 {
		return 0, nil
	}
	return c.Net.AllReduceTime(c.N, int64(len(x)*4)), nil
}

// addFloats adds the wire-format floats in b to acc element by element,
// the running sum acc[i] the left operand. It is the allreduce's fold.
func addFloats(acc []float32, b []byte) {
	for i := range acc {
		acc[i] += math.Float32frombits(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
}

// GatherAll delivers every rank's blob to every rank: into (length N, the
// caller's persistent slot table) holds rank i's blob at index i on
// return. On the in-process fabric each slot aliases its sender's blob, so
// a sender keeps its blob unchanged until every peer is done reading the
// slots; wire transports copy. It is the control-plane allgather the
// distributed trainer uses to agree on per-step statistics and on whether
// the step failed; it charges no simulated time.
func (r *Rank) GatherAll(blob []byte, into [][]byte) error {
	if len(into) != r.c.N {
		return fmt.Errorf("cluster: GatherAll got %d slots for %d ranks", len(into), r.c.N)
	}
	for to := range r.scr.out {
		r.scr.out[to] = blob
	}
	if err := r.sendAll(r.scr.out); err != nil {
		return err
	}
	return r.recvAll(into, blob)
}
