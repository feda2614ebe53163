package storage

import (
	"fmt"
	"slices"
	"testing"

	"m2mjoin/internal/plan"
)

// This file model-checks the version chain. FuzzVersionChain plays a
// fuzzed stream of Begin/Append/Delete/Commit batches and identity
// Rebinds against chainModel, a naive copy of what every snapshot must
// hold: each relation's physical rows, which of them are dead, and the
// base marker with its live-at-last-compaction mask, moved by the
// quarter rule. It uses only the exported API, so it holds any
// representation of a snapshot to the same contract.

// chainRels is the fixture: root R1(id, k) with children R2(k) and
// R3(k, x, y), both joined on k — one relation per arity, so a
// wrong-arity append differs by relation.
var chainRels = []relSpec{
	{"R1", []string{"id", "k"}},
	{"R2", []string{"k"}},
	{"R3", []string{"k", "x", "y"}},
}

type relSpec struct {
	name string
	cols []string
}

// relModel is one relation as the model sees it.
type relModel struct {
	rows     [][]int64
	dead     []bool
	base     int
	baseLive []bool // nil: every base row was live at the last compaction
}

// chainModel is one snapshot as the model sees it.
type chainModel struct {
	version uint64
	rels    []relModel
}

func (m chainModel) clone() chainModel {
	c := chainModel{version: m.version, rels: slices.Clone(m.rels)}
	for i := range c.rels {
		r := &c.rels[i]
		r.rows, r.dead, r.baseLive = slices.Clone(r.rows), slices.Clone(r.dead), slices.Clone(r.baseLive)
	}
	return c
}

// dataset builds a fresh, never-committed dataset holding m's physical
// rows.
func (m chainModel) dataset() *Dataset {
	tree := plan.NewTree(chainRels[0].name)
	for _, spec := range chainRels[1:] {
		tree.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 2}, spec.name)
	}
	ds := NewDataset(tree)
	for id, spec := range chainRels {
		rel := NewRelation(spec.name, spec.cols...)
		for _, row := range m.rels[id].rows {
			rel.AppendRow(row...)
		}
		ds.SetRelation(plan.NodeID(id), rel, "k")
	}
	return ds
}

// chainOp is one mutation of a batch: an append of vals, or a delete of
// row.
type chainOp struct {
	rel  string
	vals []int64
	del  bool
	row  int
}

// commit applies ops to a copy of m the way Commit must, and returns
// the successor with the RelationDeltas Commit must report, or ok false
// when Commit must reject the batch.
func (m chainModel) commit(ops []chainOp) (next chainModel, deltas []RelationDelta, ok bool) {
	if len(ops) == 0 {
		return m, nil, false
	}
	next = m.clone()
	next.version++
	touched := make([]*RelationDelta, len(next.rels))
	for _, o := range ops {
		id := slices.IndexFunc(chainRels, func(spec relSpec) bool { return spec.name == o.rel })
		if id < 0 {
			return m, nil, false
		}
		r := &next.rels[id]
		if touched[id] == nil {
			touched[id] = &RelationDelta{Rel: plan.NodeID(id), AppendedFrom: len(r.rows)}
		}
		if !o.del {
			if len(o.vals) != len(chainRels[id].cols) {
				return m, nil, false
			}
			r.rows, r.dead = append(r.rows, o.vals), append(r.dead, false)
			continue
		}
		if o.row < 0 || o.row >= len(r.rows) || r.dead[o.row] {
			return m, nil, false
		}
		r.dead[o.row] = true
		touched[id].Deleted = append(touched[id].Deleted, o.row)
	}
	for id, d := range touched {
		if d == nil {
			continue
		}
		// The quarter rule: compact once the appended rows plus the base
		// rows that died since the last compaction reach a quarter of
		// the base.
		r := &next.rels[id]
		liveThen, liveNow := r.base, 0
		if r.baseLive != nil {
			liveThen = countTrue(r.baseLive)
		}
		for _, dead := range r.dead[:r.base] {
			if !dead {
				liveNow++
			}
		}
		if pending := len(r.rows) - r.base + liveThen - liveNow; pending > 0 && pending*4 >= r.base {
			d.Compacted = true
			r.base, r.baseLive = len(r.rows), nil
			if slices.Contains(r.dead, true) {
				r.baseLive = make([]bool, len(r.dead))
				for row, dead := range r.dead {
					r.baseLive[row] = !dead
				}
			}
		}
		deltas = append(deltas, *d)
	}
	return next, deltas, true
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// checkSnapshot asserts that ds holds exactly what m says: rows and
// values, liveness, base marker and base-live mask, HasDeltas, version
// and Validate.
func checkSnapshot(t *testing.T, ds *Dataset, m chainModel, at string) {
	t.Helper()
	if err := ds.Validate(); err != nil {
		t.Fatalf("%s: Validate: %v", at, err)
	}
	if ds.Version() != m.version {
		t.Fatalf("%s: Version() = %d, model %d", at, ds.Version(), m.version)
	}
	hasDeltas := false
	for i, r := range m.rels {
		id := plan.NodeID(i)
		rel := ds.Relation(id)
		if rel.NumRows() != len(r.rows) {
			t.Fatalf("%s: %s has %d rows, model %d", at, rel.Name(), rel.NumRows(), len(r.rows))
		}
		for row, vals := range r.rows {
			for c, v := range vals {
				if got := rel.ColumnAt(c)[row]; got != v {
					t.Fatalf("%s: %s row %d column %d = %d, model %d", at, rel.Name(), row, c, got, v)
				}
			}
		}
		anyDead := slices.Contains(r.dead, true)
		live := ds.Live(id)
		if (live != nil) != anyDead {
			t.Fatalf("%s: %s Live() nil = %v with %d dead rows in the model", at, rel.Name(), live == nil, countTrue(r.dead))
		}
		if live != nil {
			if live.Len() != len(r.rows) {
				t.Fatalf("%s: %s Live() covers %d rows, model %d", at, rel.Name(), live.Len(), len(r.rows))
			}
			for row, dead := range r.dead {
				if live.Get(row) == dead {
					t.Fatalf("%s: %s row %d live = %v, model dead = %v", at, rel.Name(), row, live.Get(row), dead)
				}
			}
		}
		if got, want := ds.LiveRows(id), len(r.dead)-countTrue(r.dead); got != want {
			t.Fatalf("%s: %s LiveRows() = %d, model %d", at, rel.Name(), got, want)
		}
		if ds.BaseRows(id) != r.base {
			t.Fatalf("%s: %s BaseRows() = %d, model %d", at, rel.Name(), ds.BaseRows(id), r.base)
		}
		bl := ds.BaseLive(id)
		if (bl == nil) != (r.baseLive == nil) {
			t.Fatalf("%s: %s BaseLive() nil = %v, model nil = %v", at, rel.Name(), bl == nil, r.baseLive == nil)
		}
		if bl != nil {
			if bl.Len() != r.base {
				t.Fatalf("%s: %s BaseLive() covers %d rows, base is %d", at, rel.Name(), bl.Len(), r.base)
			}
			for row, l := range r.baseLive {
				if bl.Get(row) != l {
					t.Fatalf("%s: %s base row %d live-at-compaction = %v, model %v", at, rel.Name(), row, bl.Get(row), l)
				}
			}
		}
		hasDeltas = hasDeltas || anyDead || r.base < len(r.rows)
	}
	if ds.HasDeltas() != hasDeltas {
		t.Fatalf("%s: HasDeltas() = %v, model %v", at, ds.HasDeltas(), hasDeltas)
	}
}

// chainStep is one published snapshot of a chain: its version, its
// lineage fingerprint, and whether any batch up to it appended a row.
type chainStep struct {
	version, fp uint64
	appended    bool
}

// runChain plays stream against a fresh fixture of sizes rows per
// relation, checks every snapshot against the model as it goes, and
// returns the chain it published. salt is added to every appended
// value: it changes a batch's payload but never whether it is valid.
//
// The stream is two bytes per op. The first byte's low three bits pick
// the op and its upper bits the relation (R1, R2, R3 by value mod 3);
// the second byte is the op's argument.
//
//	0 commit the pending batch (an empty one is rejected)
//	1 append a row
//	2 append a wrong-arity row (one value too many; none if arg is odd)
//	3 append to a relation the dataset does not have
//	4 delete row arg mod the relation's rows, pending appends included
//	5 delete a row out of range (negative if arg is odd)
//	6 append a row and delete it in the same batch
//	7 commit a pending batch, then rebind the snapshot to its own tree
//
// A pending batch at the end of the stream is committed.
func runChain(t *testing.T, sizes [3]int, stream []byte, salt int64) []chainStep {
	var m chainModel
	for id, spec := range chainRels {
		r := relModel{base: sizes[id]}
		for i := 0; i < sizes[id]; i++ {
			row := make([]int64, len(spec.cols))
			for c := range row {
				row[c] = int64(id<<20 | i<<2 | c)
			}
			r.rows, r.dead = append(r.rows, row), append(r.dead, false)
		}
		m.rels = append(m.rels, r)
	}
	cur := m.dataset()
	checkSnapshot(t, cur, m, "v0")
	if cur.VersionFingerprint() != cur.Fingerprint() {
		t.Fatalf("v0: lineage fingerprint %x is not the content fingerprint %x", cur.VersionFingerprint(), cur.Fingerprint())
	}
	type snapshot struct {
		ds *Dataset
		m  chainModel
	}
	history := []snapshot{{cur, m}}
	chain := []chainStep{{cur.Version(), cur.VersionFingerprint(), false}}
	appended := false
	committed := map[uint64]bool{}
	publish := func(ds *Dataset, next chainModel) {
		cur, m = ds, next
		history = append(history, snapshot{ds, next.clone()})
		chain = append(chain, chainStep{ds.Version(), ds.VersionFingerprint(), appended})
		for i, h := range history {
			checkSnapshot(t, h.ds, h.m, fmt.Sprintf("snapshot %d of %d", i, len(history)))
		}
	}

	var batch []chainOp
	commit := func(pos int) {
		ops := batch
		batch = nil
		delta := cur.Begin()
		for _, o := range ops {
			if o.del {
				delta.Delete(o.rel, o.row)
			} else {
				delta.Append(o.rel, o.vals...)
			}
		}
		v, err := delta.Commit()
		next, deltas, ok := m.commit(ops)
		if !ok {
			if err == nil {
				t.Fatalf("op %d: Commit accepted a batch the model rejects: %+v", pos, ops)
			}
			if v.Dataset != nil || v.Deltas != nil {
				t.Fatalf("op %d: rejected batch published %+v", pos, v)
			}
			checkSnapshot(t, cur, m, "after a rejected batch")
			return
		}
		if err != nil {
			t.Fatalf("op %d: Commit: %v (batch %+v)", pos, err, ops)
		}
		nd := v.Dataset
		checkSnapshot(t, nd, next, "committed snapshot")
		if !slices.EqualFunc(v.Deltas, deltas, func(a, b RelationDelta) bool {
			return a.Rel == b.Rel && a.AppendedFrom == b.AppendedFrom && a.Compacted == b.Compacted && slices.Equal(a.Deleted, b.Deleted)
		}) {
			t.Fatalf("op %d: Deltas = %+v, model %+v", pos, v.Deltas, deltas)
		}
		untouched := make([]bool, len(chainRels))
		for i := range untouched {
			untouched[i] = true
		}
		for _, d := range deltas {
			untouched[d.Rel] = false
		}
		for i, u := range untouched {
			if u && nd.Relation(plan.NodeID(i)) != cur.Relation(plan.NodeID(i)) {
				t.Fatalf("op %d: untouched relation %d was copied", pos, i)
			}
		}
		if got, want := nd.Fingerprint(), next.dataset().Fingerprint(); got != want {
			t.Fatalf("op %d: Fingerprint() = %x, a fresh dataset of the same rows has %x", pos, got, want)
		}
		fp := nd.VersionFingerprint()
		if committed[fp] || fp == cur.VersionFingerprint() {
			t.Fatalf("op %d: lineage fingerprint %x repeats", pos, fp)
		}
		committed[fp] = true
		for _, o := range ops {
			appended = appended || !o.del
		}
		publish(nd, next)
	}

	for pos := 0; pos+1 < len(stream); pos += 2 {
		op, arg := stream[pos]&7, int(stream[pos+1])
		id := int(stream[pos]>>3) % len(chainRels)
		spec := chainRels[id]
		rows := len(m.rels[id].rows) // physical rows, pending appends included
		for _, o := range batch {
			if o.rel == spec.name && !o.del {
				rows++
			}
		}
		row := func() []int64 {
			vals := make([]int64, len(spec.cols))
			for c := range vals {
				vals[c] = salt - int64(pos*4+c+1)
			}
			return vals
		}
		switch op {
		case 0:
			commit(pos)
		case 1:
			batch = append(batch, chainOp{rel: spec.name, vals: row()})
		case 2:
			vals := append(row(), 0)
			if arg&1 == 1 {
				vals = nil
			}
			batch = append(batch, chainOp{rel: spec.name, vals: vals})
		case 3:
			batch = append(batch, chainOp{rel: "R9", vals: row()})
		case 4:
			batch = append(batch, chainOp{rel: spec.name, del: true, row: arg % max(rows, 1)})
		case 5:
			r := rows + arg>>1
			if arg&1 == 1 {
				r = -1 - arg>>1
			}
			batch = append(batch, chainOp{rel: spec.name, del: true, row: r})
		case 6:
			batch = append(batch, chainOp{rel: spec.name, vals: row()}, chainOp{rel: spec.name, del: true, row: rows})
		case 7:
			if len(batch) > 0 {
				commit(pos)
			}
			keys := map[plan.NodeID]string{}
			identity := map[plan.NodeID]plan.NodeID{}
			for i := 0; i < cur.Tree.Len(); i++ {
				id := plan.NodeID(i)
				identity[id] = id
				if id != plan.Root {
					keys[id] = cur.KeyColumn(id)
				}
			}
			rb := cur.Rebind(cur.Tree, identity, keys)
			if rb.Fingerprint() != cur.Fingerprint() || rb.VersionFingerprint() != rb.Fingerprint() {
				t.Fatalf("op %d: identity Rebind: content %x → %x, lineage %x (want the content fingerprint)",
					pos, cur.Fingerprint(), rb.Fingerprint(), rb.VersionFingerprint())
			}
			checkSnapshot(t, rb, m, "rebound snapshot")
			publish(rb, m)
		}
	}
	if len(batch) > 0 {
		commit(len(stream))
	}
	return chain
}

// FuzzVersionChain checks, after every commit of a fuzzed chain (see
// runChain for the stream encoding):
//   - NumRows, Live, LiveRows, BaseRows, BaseLive, HasDeltas and
//     Validate of the new snapshot and of every earlier one agree with
//     the model, values included, so no commit wrote through a snapshot
//     it extended;
//   - Deltas names exactly the touched relations in ascending order with
//     their AppendedFrom, Deleted and Compacted, and untouched relations
//     are shared, not copied;
//   - Fingerprint equals that of a fresh dataset of the model's rows;
//   - lineage fingerprints never repeat along the chain;
//   - a rejected batch publishes nothing and leaves its parent as it was.
//
// Then it replays the stream: the replay must publish the identical
// (Version, VersionFingerprint) chain, and a replay with every appended
// value perturbed must publish the same versions with every lineage
// fingerprint from the first append on changed, and none before it.
func FuzzVersionChain(f *testing.F) {
	// The compaction boundary by appends: 9 appends over a 40-row base
	// stay under the quarter (36 < 40), the 10th reaches it (40 >= 40)
	// and the base marker advances to 50.
	f.Add(uint8(4), uint8(40), uint8(1), []byte{9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 0, 0, 9, 0, 0, 0})
	// The compaction boundary by tombstones alone: two base deletes over
	// an 8-row base compact (2*4 >= 8), so BaseLive masks them; the
	// append after it stays under the new quarter.
	f.Add(uint8(4), uint8(8), uint8(1), []byte{12, 0, 12, 1, 0, 0, 9, 0, 0, 0})
	// Snapshot isolation: two appends and a delete on a 40-row child
	// under the threshold, then a batch on another relation; the parent
	// snapshots keep their rows, liveness and base marker and the
	// untouched root is shared.
	f.Add(uint8(4), uint8(40), uint8(1), []byte{9, 0, 9, 0, 12, 0, 0, 0, 17, 0, 0, 0})
	// Lineage determinism: five commits of one append each, the third
	// also deleting a root row, the fifth also appending to the root.
	f.Add(uint8(4), uint8(8), uint8(0), []byte{9, 0, 0, 0, 9, 0, 0, 0, 9, 0, 4, 3, 0, 0, 9, 0, 0, 0, 9, 0, 1, 0, 0, 0})
	// A row appended and deleted in the same batch is dead, and so is a
	// deleted row appended earlier in the batch.
	f.Add(uint8(4), uint8(8), uint8(1), []byte{14, 0, 0, 0, 9, 0, 9, 0, 12, 9, 0, 0})
	// Every rejection, each followed by a valid commit: an empty batch,
	// an unknown relation, both wrong arities, a delete past the end and
	// a negative one, a double delete in one batch, a re-delete across
	// versions, and a valid append in a batch that is rejected anyway.
	f.Add(uint8(4), uint8(8), uint8(1), []byte{
		0, 0, 3, 0, 0, 0, 10, 0, 0, 0, 10, 1, 0, 0, 13, 0, 0, 0, 13, 1, 0, 0,
		12, 1, 12, 1, 0, 0, 4, 2, 0, 0, 4, 2, 0, 0, 9, 0, 3, 0, 0, 0, 9, 0, 0, 0,
	})
	// Identity Rebinds between commits that leave tombstones and an
	// append region behind, and twice in a row.
	f.Add(uint8(4), uint8(40), uint8(3), []byte{9, 0, 12, 5, 0, 0, 7, 0, 17, 0, 12, 6, 0, 0, 7, 0, 7, 0, 9, 0, 0, 0})
	// One batch touching all three relations, out of NodeID order.
	f.Add(uint8(3), uint8(5), uint8(2), []byte{17, 0, 1, 0, 12, 2, 20, 1, 0, 0})
	// Empty relations: every append compacts (pending > 0 = base / 4).
	f.Add(uint8(0), uint8(0), uint8(0), []byte{1, 0, 9, 0, 0, 0, 14, 0, 0, 0, 17, 0})
	// Tombstones on both sides of a bitmap word boundary.
	f.Add(uint8(130), uint8(70), uint8(64), []byte{4, 63, 4, 64, 12, 63, 12, 64, 20, 63, 0, 0, 4, 127, 4, 128, 9, 0, 0, 0})

	f.Fuzz(func(t *testing.T, n1, n2, n3 uint8, stream []byte) {
		if len(stream) > 256 {
			t.Skip("every commit re-checks every earlier snapshot: keep one input cheap")
		}
		sizes := [3]int{int(n1), int(n2), int(n3)}
		chain := runChain(t, sizes, stream, 0)
		if replay := runChain(t, sizes, stream, 0); !slices.Equal(replay, chain) {
			t.Fatalf("replay published a different chain:\n got %v\nwant %v", replay, chain)
		}
		salted := runChain(t, sizes, stream, 1<<40)
		if len(salted) != len(chain) {
			t.Fatalf("perturbed appends published %d snapshots, want %d", len(salted), len(chain))
		}
		for i, s := range salted {
			if s.version != chain[i].version || (s.fp == chain[i].fp) != !chain[i].appended {
				t.Fatalf("snapshot %d: perturbed appends gave (v%d, %x), unperturbed (v%d, %x), appended so far %v",
					i, s.version, s.fp, chain[i].version, chain[i].fp, chain[i].appended)
			}
		}
	})
}
