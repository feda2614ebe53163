package exec

import (
	"fmt"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// The paper assumes "any selections are pushed down to the relations"
// (Section 2.1). This file makes that concrete: equality selections
// are evaluated once per base relation before execution, producing
// liveness masks that hash tables, bitvector filters, the semi-join
// pass and the driver scan all honor. Selections on build relations
// change the effective match probabilities and fanouts exactly as the
// Section 3.2 predicate adjustment describes.

// Selection is a pushed-down equality predicate on one relation.
type Selection struct {
	Rel    plan.NodeID
	Column string
	Value  int64
}

// Validate checks the selection against a dataset.
func (s Selection) Validate(ds *storage.Dataset) error {
	if int(s.Rel) < 0 || int(s.Rel) >= ds.Tree.Len() {
		return fmt.Errorf("selection references unknown relation %d", s.Rel)
	}
	if !ds.Relation(s.Rel).HasColumn(s.Column) {
		return fmt.Errorf("relation %q has no column %q", ds.Relation(s.Rel).Name(), s.Column)
	}
	return nil
}

// selectionMasks evaluates all selections and returns packed liveness
// bitmaps indexed densely by NodeID (nil entries — and a nil result
// when there are no selections at all — mean all-live). Stacked
// selections on one relation probe only rows still live after the
// earlier predicates.
func selectionMasks(ds *storage.Dataset, selections []Selection) []*storage.Bitmap {
	if len(selections) == 0 {
		return nil
	}
	masks := make([]*storage.Bitmap, ds.Tree.Len())
	for _, s := range selections {
		rel := ds.Relation(s.Rel)
		mask := masks[s.Rel]
		if mask == nil {
			mask = storage.NewBitmap(rel.NumRows())
			masks[s.Rel] = mask
		}
		col := rel.Column(s.Column)
		value := s.Value
		mask.Retain(func(row int) bool { return col[row] == value })
	}
	return masks
}

// effectiveMasks intersects the selection masks with the dataset's
// per-relation liveness (versioned snapshots carry tombstones for
// deleted rows): the result is what the semi-join pass, selection-
// shaped builds and the driver scan honor. Relations without a
// selection share the dataset's live bitmap by reference — every
// downstream reader treats masks as read-only (the SJ pass copies
// before reducing) — while selection masks, freshly allocated above,
// are intersected in place. The result is a slice of its own whenever
// liveness adds an entry: sel keeps saying which relations carry a
// selection, which decides the shape of their tables. With no
// tombstones the selection masks pass through untouched.
func effectiveMasks(ds *storage.Dataset, sel []*storage.Bitmap) []*storage.Bitmap {
	if !ds.HasDeltas() {
		return sel
	}
	masks := sel
	owned := false
	for i := 0; i < ds.Tree.Len(); i++ {
		live := ds.Live(plan.NodeID(i))
		if live == nil {
			continue
		}
		if !owned {
			masks = make([]*storage.Bitmap, ds.Tree.Len())
			copy(masks, sel)
			owned = true
		}
		if masks[i] == nil {
			masks[i] = live
		} else {
			masks[i].And(live)
		}
	}
	return masks
}

// restrictDriver intersects the root's effective mask with a driver-row
// restriction (Options.DriverRows; nil = none), so a restricted run is
// indistinguishable downstream from one with a root selection. The
// restriction is read-only and the root mask may alias the dataset's
// live bitmap, so an intersection is always a fresh bitmap.
func restrictDriver(ds *storage.Dataset, masks []*storage.Bitmap, rows *storage.Bitmap) []*storage.Bitmap {
	if rows == nil {
		return masks
	}
	if masks == nil {
		masks = make([]*storage.Bitmap, ds.Tree.Len())
	}
	if cur := masks[plan.Root]; cur != nil {
		rows = rows.Clone()
		rows.And(cur)
	}
	masks[plan.Root] = rows
	return masks
}
