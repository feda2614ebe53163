package storage

import (
	"strings"
	"testing"

	"m2mjoin/internal/plan"
)

// twoRelDataset builds a tiny R1(R2) dataset for delta tests: driver
// R1(id) with n1 rows, child R2(id, k) with n2 rows keyed on k.
func twoRelDataset(n1, n2 int) *Dataset {
	tr := plan.NewTree("R1")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 2}, "R2")
	r1 := NewRelation("R1", "id")
	for i := 0; i < n1; i++ {
		r1.AppendRow(int64(i))
	}
	r2 := NewRelation("R2", "id", "k")
	for i := 0; i < n2; i++ {
		r2.AppendRow(int64(i), int64(i%n1))
	}
	ds := NewDataset(tr)
	ds.SetRelation(plan.Root, r1, "")
	ds.SetRelation(plan.NodeID(1), r2, "k")
	return ds
}

// TestCommitSnapshotIsolation: Commit must return a new snapshot and
// leave the receiver's rows and liveness untouched — the copy-on-write
// contract in-flight queries rely on.
func TestCommitSnapshotIsolation(t *testing.T) {
	// 40 child rows: a 3-op delta stays under the compaction threshold,
	// so the base marker must not move.
	ds := twoRelDataset(4, 40)
	r2 := plan.NodeID(1)
	baseRows := ds.Relation(r2).NumRows()
	baseCol := ds.Relation(r2).Column("k")

	v, err := ds.Begin().
		Append("R2", 100, 1).
		Append("R2", 101, 2).
		Delete("R2", 0).
		Commit()
	if err != nil {
		t.Fatal(err)
	}
	if v.Dataset.Version() != 1 {
		t.Fatalf("version = %d, want 1", v.Dataset.Version())
	}
	// Parent snapshot unchanged.
	if ds.Version() != 0 {
		t.Fatalf("parent version mutated to %d", ds.Version())
	}
	if got := ds.Relation(r2).NumRows(); got != baseRows {
		t.Fatalf("parent rows grew to %d", got)
	}
	if ds.Live(r2) != nil {
		t.Fatalf("parent grew a liveness bitmap")
	}
	for i := range baseCol {
		if baseCol[i] != int64(i%4) {
			t.Fatalf("parent column data changed at %d", i)
		}
	}
	// Successor sees the delta.
	nd := v.Dataset
	if got := nd.Relation(r2).NumRows(); got != baseRows+2 {
		t.Fatalf("successor rows = %d, want %d", got, baseRows+2)
	}
	if nd.LiveRows(r2) != baseRows+2-1 {
		t.Fatalf("successor live rows = %d", nd.LiveRows(r2))
	}
	if nd.Live(r2).Get(0) {
		t.Fatalf("deleted row 0 still live")
	}
	if got := nd.Relation(r2).Column("id")[baseRows]; got != 100 {
		t.Fatalf("appended row value = %d", got)
	}
	// Physical rows never renumber: the base marker stays put (no
	// compaction at this delta size) and old rows keep their indices.
	if nd.BaseRows(r2) != baseRows {
		t.Fatalf("BaseRows advanced to %d without compaction", nd.BaseRows(r2))
	}
	// Untouched relation shared by reference.
	if &nd.Relation(plan.Root).Column("id")[0] != &ds.Relation(plan.Root).Column("id")[0] {
		t.Fatalf("untouched relation was copied")
	}
}

// TestLineageFingerprintDeterministic: two independent replays of one
// mutation stream must walk identical (version, fingerprint) chains,
// and any divergence in the stream must diverge the fingerprint.
func TestLineageFingerprintDeterministic(t *testing.T) {
	run := func(extra bool) []uint64 {
		ds := twoRelDataset(4, 8)
		var fps []uint64
		cur := ds
		for i := 0; i < 5; i++ {
			d := cur.Begin().Append("R2", int64(200+i), int64(i%4))
			if i == 2 {
				d.Delete("R1", 3)
			}
			if extra && i == 4 {
				d.Append("R1", 99)
			}
			v, err := d.Commit()
			if err != nil {
				t.Fatal(err)
			}
			fps = append(fps, v.Dataset.VersionFingerprint())
			cur = v.Dataset
		}
		return fps
	}
	a, b, c := run(false), run(false), run(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at version %d: %x vs %x", i+1, a[i], b[i])
		}
	}
	if a[4] == c[4] {
		t.Fatalf("different streams share fingerprint %x", a[4])
	}
	if a[3] != c[3] {
		t.Fatalf("common prefix diverged: %x vs %x", a[3], c[3])
	}
}

// TestCompactionPolicy: the base marker advances exactly when the
// pending delta reaches a quarter of the base — a pure function of the
// mutation history.
func TestCompactionPolicy(t *testing.T) {
	ds := twoRelDataset(4, 40)
	r2 := plan.NodeID(1)
	cur := ds
	// 9 appends over base 40: pending 9*4=36 < 40, no compaction.
	d := cur.Begin()
	for i := 0; i < 9; i++ {
		d.Append("R2", int64(300+i), 0)
	}
	v, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if v.Deltas[0].Compacted || v.Dataset.BaseRows(r2) != 40 {
		t.Fatalf("compacted early: %+v", v.Deltas[0])
	}
	cur = v.Dataset
	// One more append: pending 10*4 = 40 >= 40 triggers compaction.
	v, err = cur.Begin().Append("R2", 310, 0).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Deltas[0].Compacted {
		t.Fatalf("compaction threshold missed")
	}
	if got := v.Dataset.BaseRows(r2); got != 50 {
		t.Fatalf("BaseRows = %d after compaction, want 50", got)
	}
	// Tombstones in the base region count toward pending too.
	ds2 := twoRelDataset(4, 8)
	v2, err := ds2.Begin().Delete("R2", 0).Delete("R2", 1).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Deltas[0].Compacted {
		t.Fatalf("2 tombstones over base 8 should compact (2*4 >= 8)")
	}
	// After compaction BaseLive masks the dead rows out of the packed
	// region.
	if bl := v2.Dataset.BaseLive(plan.NodeID(1)); bl == nil || bl.Get(0) || !bl.Get(2) {
		t.Fatalf("BaseLive wrong after compaction: %v", bl)
	}
}

// TestDeltaValidation: every malformed batch must fail Commit with a
// storage error naming the problem. FuzzVersionChain checks that a
// rejected batch leaves no successor.
func TestDeltaValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Delta)
		want string
	}{
		{"empty", func(d *Delta) {}, "empty delta"},
		{"unknown relation", func(d *Delta) { d.Append("nope", 1, 2) }, "unknown relation"},
		{"arity", func(d *Delta) { d.Append("R2", 1) }, "values for"},
		{"delete out of range", func(d *Delta) { d.Delete("R2", 99) }, "out of range"},
		{"double delete", func(d *Delta) { d.Delete("R2", 1).Delete("R2", 1) }, "already dead"},
	}
	for _, tc := range cases {
		ds := twoRelDataset(4, 8)
		d := ds.Begin()
		tc.mut(d)
		if _, err := d.Commit(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	// Deleting a dead row across versions fails too.
	ds := twoRelDataset(4, 8)
	v, err := ds.Begin().Delete("R1", 2).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Dataset.Begin().Delete("R1", 2).Commit(); err == nil {
		t.Errorf("re-deleting a dead row succeeded")
	}
	// Deleting a row appended in the same batch is allowed.
	ds2 := twoRelDataset(4, 8)
	v2, err := ds2.Begin().Append("R2", 50, 1).Delete("R2", 8).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if v2.Dataset.LiveRows(plan.NodeID(1)) != 8 {
		t.Errorf("same-batch append+delete live count = %d, want 8",
			v2.Dataset.LiveRows(plan.NodeID(1)))
	}
}

// TestHasDeltas: the executor's fast-path gate must be false for plain
// snapshots and true exactly while uncompacted delta state exists.
func TestHasDeltas(t *testing.T) {
	ds := twoRelDataset(4, 40)
	if ds.HasDeltas() {
		t.Fatalf("fresh dataset reports deltas")
	}
	v, err := ds.Begin().Append("R2", 1, 0).Commit()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Dataset.HasDeltas() {
		t.Fatalf("appended snapshot reports no deltas")
	}
}
