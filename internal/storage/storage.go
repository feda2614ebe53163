// Package storage provides the columnar storage substrate of the
// prototype engine (Section 4.1-4.2): relations stored as vectors of
// int64 columns, word-packed selection bitmaps (see Bitmap in
// bitmap.go: one bit per row, popcount counting, skip-by-word live-row
// iteration), and the dataset abstraction that binds base relations to
// the nodes of a join tree.
//
// A Dataset is a slice of relation states indexed by NodeID: the
// relation, its join key column, a liveness bitmap, a base marker and a
// live-at-last-compaction mask. Physical rows are never removed and row
// indices never shift: a delete clears the row's bit in a cloned
// liveness bitmap and leaves it in its column, dead; an append extends
// the columns with Go's append, past the length every reader of the
// parent snapshot has pinned. Rows [0, BaseRows) with the BaseLive mask
// are the packed region derived artifacts (hash tables, filters) build
// their sorted layout over, rows [BaseRows, NumRows) the append region
// they maintain incrementally; compaction only advances the marker.
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
	// rels is indexed by NodeID.
	rels []relState

	// version and the lineage fingerprint vfp place the snapshot in its
	// version chain (see version.go); vfpSet is false until version 0's
	// lineage fingerprint, its content fingerprint, is first computed.
	version uint64
	vfp     uint64
	vfpSet  bool
}

// relState is what a snapshot holds for one tree node. Its zero value
// beyond rel and key is a relation never committed to: every row live,
// every row packed.
type relState struct {
	rel *Relation
	key string // equi-join column shared with the parent; "" for the root
	// live is the liveness mask; nil means every row is live.
	live *Bitmap
	// appendRows is the size of the append region: rows [0, NumRows -
	// appendRows) are the packed base, the rest were appended since the
	// last compaction.
	appendRows int
	// baseLive is the live-at-last-compaction mask over the base; nil
	// means every base row was live.
	baseLive *Bitmap
}

// NewDataset creates a dataset for the tree. Relations are attached
// with SetRelation.
func NewDataset(t *plan.Tree) *Dataset {
	return &Dataset{Tree: t, rels: make([]relState, t.Len())}
}

// SetRelation binds rel to tree node id. For non-root nodes, keyColumn
// names the equi-join column shared with the parent relation; it is
// ignored for the root.
func (d *Dataset) SetRelation(id plan.NodeID, rel *Relation, keyColumn string) {
	if id == plan.Root {
		keyColumn = ""
	}
	d.rels[id] = relState{rel: rel, key: keyColumn}
}

// Relation returns the relation bound to id.
func (d *Dataset) Relation(id plan.NodeID) *Relation {
	if int(id) >= len(d.rels) || d.rels[id].rel == nil {
		panic(fmt.Sprintf("storage: dataset has no relation for node %d", id))
	}
	return d.rels[id].rel
}

// KeyColumn returns the equi-join column name between id and its
// parent.
func (d *Dataset) KeyColumn(id plan.NodeID) string {
	if id == plan.Root || int(id) >= len(d.rels) || d.rels[id].rel == nil {
		panic(fmt.Sprintf("storage: dataset has no key column for node %d", id))
	}
	return d.rels[id].key
}

// Validate checks that every tree node has a relation, that every join
// column exists on both sides, that the versioned state covers its
// relation, and returns an error describing the first problem found.
func (d *Dataset) Validate() error {
	for i := 0; i < d.Tree.Len(); i++ {
		id := plan.NodeID(i)
		if i >= len(d.rels) || d.rels[i].rel == nil {
			return fmt.Errorf("node %d (%s) has no relation", id, d.Tree.Name(id))
		}
		s := d.rels[i]
		rows := s.rel.NumRows()
		if s.live != nil && s.live.Len() != rows {
			return fmt.Errorf("relation %q liveness mask covers %d rows, relation has %d",
				s.rel.Name(), s.live.Len(), rows)
		}
		base := rows - s.appendRows
		if s.appendRows < 0 || base < 0 {
			return fmt.Errorf("relation %q base marker %d out of range [0, %d]", s.rel.Name(), base, rows)
		}
		if s.baseLive != nil && s.baseLive.Len() < base {
			return fmt.Errorf("relation %q base-live mask covers %d rows, base marker is %d",
				s.rel.Name(), s.baseLive.Len(), base)
		}
		if id == plan.Root {
			continue
		}
		if s.key == "" {
			return fmt.Errorf("node %d (%s) has no key column", id, d.Tree.Name(id))
		}
		if !s.rel.HasColumn(s.key) {
			return fmt.Errorf("relation %q missing its own join column %q", s.rel.Name(), s.key)
		}
		// Parents precede children, so the parent's relation was checked.
		if parent := d.rels[d.Tree.Parent(id)].rel; !parent.HasColumn(s.key) {
			return fmt.Errorf("parent relation %q missing join column %q for child %q",
				parent.Name(), s.key, s.rel.Name())
		}
	}
	return nil
}

// TotalRows returns the summed cardinality of all relations (the IN of
// the Yannakakis O(IN + OUT) bound).
func (d *Dataset) TotalRows() int {
	total := 0
	for _, s := range d.rels {
		if s.rel != nil {
			total += s.rel.NumRows()
		}
	}
	return total
}
