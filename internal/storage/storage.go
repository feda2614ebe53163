// Package storage provides the columnar storage substrate of the
// prototype engine (Section 4.1-4.2): relations stored as vectors of
// int64 columns, word-packed selection bitmaps (see Bitmap in
// bitmap.go: one bit per row, popcount counting, skip-by-word live-row
// iteration), and the dataset abstraction that binds base relations to
// the nodes of a join tree.
//
// All attributes are int64. The techniques under study (factorized
// execution, bitvector pruning, semi-join reduction) are agnostic to
// the attribute type; fixed-width integer columns keep the probe loops
// allocation-free, mirroring the paper's use of DuckDB-style native
// arrays for fixed-length types.
package storage

import (
	"fmt"

	"m2mjoin/internal/plan"
)

// Column is a vector of attribute values (a VectorColumn in the
// paper's terminology).
type Column []int64

// Relation is a columnar table. All columns have equal length.
type Relation struct {
	name  string
	names []string
	index map[string]int
	cols  []Column
}

// NewRelation creates an empty relation with the given column names.
func NewRelation(name string, colNames ...string) *Relation {
	r := &Relation{
		name:  name,
		names: append([]string(nil), colNames...),
		index: make(map[string]int, len(colNames)),
		cols:  make([]Column, len(colNames)),
	}
	for i, n := range colNames {
		if _, dup := r.index[n]; dup {
			panic(fmt.Sprintf("storage: duplicate column %q in relation %q", n, name))
		}
		r.index[n] = i
	}
	return r
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// ColumnNames returns the column names in declaration order. The
// returned slice must not be modified.
func (r *Relation) ColumnNames() []string { return r.names }

// NumRows returns the number of rows.
func (r *Relation) NumRows() int {
	if len(r.cols) == 0 {
		return 0
	}
	return len(r.cols[0])
}

// NumCols returns the number of columns.
func (r *Relation) NumCols() int { return len(r.cols) }

// HasColumn reports whether the relation has a column with this name.
func (r *Relation) HasColumn(name string) bool {
	_, ok := r.index[name]
	return ok
}

// Column returns the column with the given name. It panics on unknown
// names: column references are fixed by the query plan, so a miss is a
// programming error.
func (r *Relation) Column(name string) Column {
	i, ok := r.index[name]
	if !ok {
		panic(fmt.Sprintf("storage: relation %q has no column %q", r.name, name))
	}
	return r.cols[i]
}

// ColumnAt returns the i-th column.
func (r *Relation) ColumnAt(i int) Column { return r.cols[i] }

// AppendRow adds one row; values must match the column count.
func (r *Relation) AppendRow(values ...int64) {
	if len(values) != len(r.cols) {
		panic(fmt.Sprintf("storage: AppendRow got %d values for %d columns", len(values), len(r.cols)))
	}
	for i, v := range values {
		r.cols[i] = append(r.cols[i], v)
	}
}

// GatherRows appends the listed rows of src to r, column by column.
// Both relations must have the same column layout; the caller
// guarantees the row indices are in range.
func (r *Relation) GatherRows(src *Relation, rows []int32) {
	if len(r.cols) != len(src.cols) {
		panic(fmt.Sprintf("storage: GatherRows across layouts (%d vs %d columns)",
			len(r.cols), len(src.cols)))
	}
	r.Grow(len(rows))
	for c := range r.cols {
		dst, from := r.cols[c], src.cols[c]
		for _, row := range rows {
			dst = append(dst, from[row])
		}
		r.cols[c] = dst
	}
}

// Grow reserves capacity for n additional rows.
func (r *Relation) Grow(n int) {
	for i := range r.cols {
		if cap(r.cols[i])-len(r.cols[i]) < n {
			next := make(Column, len(r.cols[i]), len(r.cols[i])+n)
			copy(next, r.cols[i])
			r.cols[i] = next
		}
	}
}

// Dataset binds base relations to the nodes of a join tree. For every
// non-root node c, the join with its parent is an equi-join on
// KeyColumn(c): the parent relation and c's relation both carry a
// column with that name.
//
// A Dataset is an immutable snapshot once published: mutations go
// through the delta API in version.go (Begin/Append/Delete/Commit),
// which produces successor snapshots sharing storage with this one.
type Dataset struct {
	Tree *plan.Tree
	rels map[plan.NodeID]*Relation
	keys map[plan.NodeID]string

	// Versioned-snapshot state (see version.go). All maps may be nil
	// for a dataset that has never been committed to: version 0, every
	// row live, every relation fully packed.
	version uint64
	vfp     uint64
	vfpSet  bool
	// live holds per-relation liveness; a missing entry means all rows
	// live.
	live map[plan.NodeID]*Bitmap
	// baseRows is the per-relation base marker: rows [0, baseRows) are
	// the packed region of derived artifacts, [baseRows, NumRows) the
	// append region. A missing entry means fully packed.
	baseRows map[plan.NodeID]int
	// baseLive is the per-relation live-at-last-compaction mask over
	// the base region; a missing entry means all base rows were live.
	baseLive map[plan.NodeID]*Bitmap
}

// NewDataset creates a dataset for the tree. Relations are attached
// with SetRelation.
func NewDataset(t *plan.Tree) *Dataset {
	return &Dataset{
		Tree: t,
		rels: make(map[plan.NodeID]*Relation, t.Len()),
		keys: make(map[plan.NodeID]string, t.Len()),
	}
}

// SetRelation binds rel to tree node id. For non-root nodes, keyColumn
// names the equi-join column shared with the parent relation; it is
// ignored for the root.
func (d *Dataset) SetRelation(id plan.NodeID, rel *Relation, keyColumn string) {
	d.rels[id] = rel
	if id != plan.Root {
		d.keys[id] = keyColumn
	}
}

// Relation returns the relation bound to id.
func (d *Dataset) Relation(id plan.NodeID) *Relation {
	r, ok := d.rels[id]
	if !ok {
		panic(fmt.Sprintf("storage: dataset has no relation for node %d", id))
	}
	return r
}

// KeyColumn returns the equi-join column name between id and its
// parent.
func (d *Dataset) KeyColumn(id plan.NodeID) string {
	k, ok := d.keys[id]
	if !ok {
		panic(fmt.Sprintf("storage: dataset has no key column for node %d", id))
	}
	return k
}

// Validate checks that every tree node has a relation, that every join
// column exists on both sides, and returns an error describing the
// first problem found.
func (d *Dataset) Validate() error {
	for i := 0; i < d.Tree.Len(); i++ {
		id := plan.NodeID(i)
		rel, ok := d.rels[id]
		if !ok {
			return fmt.Errorf("node %d (%s) has no relation", id, d.Tree.Name(id))
		}
		if id == plan.Root {
			continue
		}
		key, ok := d.keys[id]
		if !ok {
			return fmt.Errorf("node %d (%s) has no key column", id, d.Tree.Name(id))
		}
		if !rel.HasColumn(key) {
			return fmt.Errorf("relation %q missing its own join column %q", rel.Name(), key)
		}
		parent := d.rels[d.Tree.Parent(id)]
		if parent == nil {
			return fmt.Errorf("node %d's parent has no relation", id)
		}
		if !parent.HasColumn(key) {
			return fmt.Errorf("parent relation %q missing join column %q for child %q",
				parent.Name(), key, rel.Name())
		}
	}
	for id, b := range d.live {
		if b != nil && b.Len() != d.rels[id].NumRows() {
			return fmt.Errorf("relation %q liveness mask covers %d rows, relation has %d",
				d.rels[id].Name(), b.Len(), d.rels[id].NumRows())
		}
	}
	for id, base := range d.baseRows {
		if base < 0 || base > d.rels[id].NumRows() {
			return fmt.Errorf("relation %q base marker %d out of range [0, %d]",
				d.rels[id].Name(), base, d.rels[id].NumRows())
		}
		if bl := d.baseLive[id]; bl != nil && bl.Len() < base {
			return fmt.Errorf("relation %q base-live mask covers %d rows, base marker is %d",
				d.rels[id].Name(), bl.Len(), base)
		}
	}
	return nil
}

// TotalRows returns the summed cardinality of all relations (the IN of
// the Yannakakis O(IN + OUT) bound).
func (d *Dataset) TotalRows() int {
	total := 0
	for _, r := range d.rels {
		total += r.NumRows()
	}
	return total
}
