package embedding

import (
	"fmt"
	"math"

	"dlrmcomp/internal/tensor"
)

// Table is one embedding table: NumRows vectors of dimension Dim.
type Table struct {
	ID      int
	NumRows int
	Dim     int
	Weights *tensor.Matrix // [NumRows, Dim]
}

// NewTableWithInitScale allocates a table holding numRows rows but
// initialized with the value range of a table of initRows rows:
// uniform(-1/sqrt(initRows), 1/sqrt(initRows)), the open-source DLRM
// reference's scheme (scaled by table cardinality so hot small tables don't
// dominate the interaction logits) at initRows = numRows. Scaled-down
// experiment datasets use this to preserve the full-scale value statistics
// — in particular the vector homogenization behaviour, which depends on the
// init range relative to the quantization error bound — while storing far
// fewer rows.
func NewTableWithInitScale(id, numRows, dim, initRows int, rng *tensor.RNG) *Table {
	if numRows <= 0 || dim <= 0 || initRows <= 0 {
		panic(fmt.Sprintf("embedding: invalid table shape %dx%d (init %d)", numRows, dim, initRows))
	}
	t := &Table{ID: id, NumRows: numRows, Dim: dim, Weights: tensor.NewMatrix(numRows, dim)}
	limit := float32(1.0 / math.Sqrt(float64(initRows)))
	rng.FillUniform(t.Weights.Data, -limit, limit)
	return t
}

// Lookup gathers the rows for indices into a new [len(indices), Dim] matrix.
func (t *Table) Lookup(indices []int32) *tensor.Matrix {
	out := tensor.NewMatrix(len(indices), t.Dim)
	t.LookupInto(out, indices)
	return out
}

// LookupInto gathers rows into dst, which must be [len(indices), Dim].
func (t *Table) LookupInto(dst *tensor.Matrix, indices []int32) {
	t.LookupIntoWorkers(dst, indices, 1)
}

// lookupParallelMin is the gathered-element count below which LookupInto
// stays serial: the copy is pure memory traffic and small gathers lose more
// to fan-out than they gain.
const lookupParallelMin = 1 << 14

// LookupIntoWorkers is LookupInto with an explicit row-parallel width
// (0 = GOMAXPROCS, 1 = serial). Rows of dst are written independently, so the
// result is identical at any width; gathers below lookupParallelMin elements
// run serially regardless.
func (t *Table) LookupIntoWorkers(dst *tensor.Matrix, indices []int32, workers int) {
	if dst.Rows != len(indices) || dst.Cols != t.Dim {
		panic("embedding: LookupInto shape mismatch")
	}
	if workers == 1 || len(indices)*t.Dim < lookupParallelMin {
		t.lookupSpan(dst, indices, 0, len(indices))
		return
	}
	tensor.ParallelSpans(workers, len(indices), func(lo, hi int) {
		t.lookupSpan(dst, indices, lo, hi)
	})
}

// lookupSpan gathers rows [lo, hi). Kept as a plain method so the serial
// LookupIntoWorkers path stays allocation-free (no escaping closure).
func (t *Table) lookupSpan(dst *tensor.Matrix, indices []int32, lo, hi int) {
	for i := lo; i < hi; i++ {
		idx := indices[i]
		if idx < 0 || int(idx) >= t.NumRows {
			panic(fmt.Sprintf("embedding: index %d out of range [0,%d) in table %d", idx, t.NumRows, t.ID))
		}
		copy(dst.Row(i), t.Weights.Row(int(idx)))
	}
}

// SparseGrad holds the gradient rows for one lookup batch: grad.Row(i) is
// dL/d(lookup row i), destined for Weights.Row(indices[i]).
type SparseGrad struct {
	Indices []int32
	Grad    *tensor.Matrix // [len(Indices), Dim]
}

// ApplySGD scatters the sparse gradient with a plain SGD update; duplicate
// indices accumulate naturally because updates are applied sequentially.
func (t *Table) ApplySGD(sg SparseGrad, lr float32) {
	if sg.Grad.Rows != len(sg.Indices) || sg.Grad.Cols != t.Dim {
		panic("embedding: ApplySGD shape mismatch")
	}
	for i, idx := range sg.Indices {
		row := t.Weights.Row(int(idx))
		g := sg.Grad.Row(i)
		for j, gv := range g {
			row[j] -= float32(lr * gv)
		}
	}
}

// Group is an ordered set of embedding tables (one per categorical feature).
type Group struct {
	Tables []*Table
}

// NewGroupWithInit builds tables whose init range follows initCardinalities
// (nil means the actual cardinalities).
func NewGroupWithInit(cardinalities, initCardinalities []int, dim int, rng *tensor.RNG) *Group {
	g := &Group{}
	for id, n := range cardinalities {
		initRows := n
		if initCardinalities != nil {
			initRows = initCardinalities[id]
		}
		g.Tables = append(g.Tables, NewTableWithInitScale(id, n, dim, initRows, rng))
	}
	return g
}

// LookupAll gathers one batch per table. indices[t][i] is the categorical
// index of sample i for feature t. Returns one [batch, Dim] matrix per table.
func (g *Group) LookupAll(indices [][]int32) []*tensor.Matrix {
	if len(indices) != len(g.Tables) {
		panic("embedding: LookupAll wants one index slice per table")
	}
	out := make([]*tensor.Matrix, len(g.Tables))
	for ti, t := range g.Tables {
		out[ti] = t.Lookup(indices[ti])
	}
	return out
}
