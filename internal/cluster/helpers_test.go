package cluster

// Test conveniences over the trainer-facing API: the blocking collectives
// are the nonblocking ones awaited at once.

// N returns the cluster size.
func (r *Rank) N() int { return r.c.N }

// AllToAll exchanges one buffer per peer with the direct algorithm: send[j]
// goes to rank j, and the result's entry i holds the buffer rank i sent
// here. If variable is true the simulated cost includes the metadata
// exchange of the paper's stage ②.
func (r *Rank) AllToAll(send [][]byte, variable bool, label string) ([][]byte, error) {
	return r.AllToAllV(send, variable, label, A2ADirect)
}

// AllToAllV is AllToAll with an explicit algorithm choice.
func (r *Rank) AllToAllV(send [][]byte, variable bool, label string, algo A2AAlgo) ([][]byte, error) {
	return r.IAllToAllV(send, variable, label, algo).Await()
}

// AllReduceSum sums x elementwise across ranks; every rank's x holds the
// global sum on return.
func (r *Rank) AllReduceSum(x []float32, label string) error {
	return r.IAllReduceSum(x, label).Await()
}

// Awaited reports whether Await has been called on this handle.
func (p *PendingAllToAll) Awaited() bool { return p.awaited }
