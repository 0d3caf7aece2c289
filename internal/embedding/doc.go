// Package embedding implements DLRM embedding tables: dense row storage,
// batched lookup, and the sparse gradient scatter/update used during
// backpropagation. A lookup batch produces one row per sample per table; the
// rows are exactly the "embedding lookups" whose all-to-all exchange the
// paper compresses.
//
// Layer: model substrate under internal/model. In the distributed trainer
// the tables are the model-parallel half of hybrid parallelism: each table
// is stored once, owned by one rank, and read/updated only through the
// all-to-all-delivered lookups and gradients. The byte volume its lookups
// move through HBM is what internal/dist charges to the "lookup" sim-time
// bucket (via netmodel.Device.LookupTime).
//
// Key types: Table (NewTableWithInitScale/Lookup/ApplySGD; rows are
// float32, updates are scaled sparse SGD with duplicate-index accumulation
// in batch order),
// SparseGrad (indices + gradient rows for one table's scatter), and Group
// (the per-model collection with one Table per categorical feature).
package embedding
