package service

import (
	"context"
	"fmt"

	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// This file is the serving tier's write path. Mutate applies one batch
// of appends and deletes to a registered dataset through the storage
// delta API (storage.Dataset.Begin ... Commit), producing the next
// snapshot in the dataset's version chain, and then maintains every
// derived structure in lockstep:
//
//   - the entry head swaps to the new snapshot; queries admitted before
//     the swap keep their pinned snapshot (copy-on-write columns and
//     liveness make the old version immutable), queries admitted after
//     see the new one — snapshot isolation with no reader locks;
//   - unselected (maskFP == 0) cached tables of the previous version
//     are repaired in place onto the new version's cache keys: touched
//     relations via hashtable.ApplyDelta (O(delta), bit-identical to a
//     cold build — and so is the bitvector filter the repaired table
//     projects, with nothing to repair separately), untouched relations
//     by re-inserting the same pointers under the new key. Compacted
//     relations are skipped — the next query rebuilds them cold, which
//     is the only correct shape after a geometry change;
//   - memoized shard partitions advance through shard.Advance, which
//     routes the commit's appended driver rows onto their owning
//     shard's row set; shards execute the parent snapshot under its own
//     artifact keys, so the repair above is all a sharded service needs;
//   - versions older than the retention window (the current and
//     previous snapshot) have their artifact cache keys purged, so a
//     write-heavy workload cannot grow the cache without bound on
//     superseded versions.
//
// Writers are serialized per dataset (verMu): the storage delta chain
// is single-writer per snapshot by contract. Mutations of datasets
// served by remote shard backends are the operator's responsibility to
// propagate — each process owns its own catalog, and a frontend only
// verifies backend content by the registered fingerprint; this
// prototype's sharded mutation story is the in-process one.

// MutationSpec is one operation of a mutation batch, addressed by
// relation name (the HTTP form of a storage.Delta Append or Delete).
type MutationSpec struct {
	// Op is "append" or "delete".
	Op string `json:"op"`
	// Relation names the target relation.
	Relation string `json:"relation"`
	// Values are the appended row's column values, in the relation's
	// column order (append only).
	Values []int64 `json:"values,omitempty"`
	// Row is the global row index to tombstone (delete only).
	Row int `json:"row,omitempty"`
}

// MutateRequest is one mutation batch; all operations commit
// atomically as one version.
type MutateRequest struct {
	Dataset string         `json:"dataset"`
	Ops     []MutationSpec `json:"ops"`
}

// MutateResult describes one committed version.
type MutateResult struct {
	Dataset string `json:"dataset"`
	// Version and Fingerprint identify the committed snapshot in the
	// dataset's lineage.
	Version     uint64 `json:"version"`
	Fingerprint uint64 `json:"fingerprint"`
	// Applied is the number of operations in the committed batch.
	Applied int `json:"applied"`
	// Compacted names relations whose maintenance state was compacted
	// at this commit (their artifacts rebuild cold on next use).
	Compacted []string `json:"compacted,omitempty"`
	// Repaired counts cached hash tables carried onto this version in
	// place (touched relations repaired via ApplyDelta, untouched ones
	// re-keyed). Bitvector filters are part of their table and are not
	// counted.
	Repaired int `json:"repaired"`
	// Rows reports each relation's physical row count after the commit
	// (rows are never renumbered — deletes tombstone, compaction only
	// advances the packed-region marker), so writers can address
	// later deletes at their own appended rows.
	Rows map[string]int `json:"rows"`
}

// Mutate commits one batch of appends and deletes against a registered
// dataset, advancing it to the next snapshot version. Queries in
// flight keep the snapshot they pinned at admission; queries admitted
// after Mutate returns see the new version. A batch whose appends would
// grow a relation past the int32 row-id range is rejected whole
// (ClassInvalid). Safe for concurrent use — writers to one dataset are
// serialized internally.
func (s *Service) Mutate(ctx context.Context, req MutateRequest) (MutateResult, error) {
	if err := s.shedIfDraining(); err != nil {
		return MutateResult{}, err
	}
	e := s.entry(req.Dataset)
	if e == nil {
		return MutateResult{}, invalidErr(fmt.Errorf("unknown dataset %q", req.Dataset))
	}
	if len(req.Ops) == 0 {
		return MutateResult{}, invalidErr(fmt.Errorf("mutation batch is empty"))
	}
	if err := ctx.Err(); err != nil {
		return MutateResult{}, asQueryError(err)
	}

	mstart := s.now()
	e.verMu.Lock()
	defer e.verMu.Unlock()
	cur := e.head.Load()
	delta := cur.Begin()
	appended := make(map[plan.NodeID]int)
	for _, op := range req.Ops {
		id, ok := e.nodeOf[op.Relation]
		if !ok {
			return MutateResult{}, invalidErr(fmt.Errorf("dataset %q has no relation %q", req.Dataset, op.Relation))
		}
		switch op.Op {
		case "append":
			appended[id]++
			if rows := cur.Relation(id).NumRows() + appended[id]; rows > s.maxRows {
				return MutateResult{}, invalidErr(fmt.Errorf("append would grow relation %q to %d rows, past the int32 row-id range (%d)",
					op.Relation, rows, s.maxRows))
			}
			delta.Append(op.Relation, op.Values...)
		case "delete":
			delta.Delete(op.Relation, op.Row)
		default:
			return MutateResult{}, invalidErr(fmt.Errorf("unknown mutation op %q", op.Op))
		}
	}
	v, err := delta.Commit()
	if err != nil {
		return MutateResult{}, invalidErr(err)
	}

	// Repair the previous version's unselected artifacts onto the new
	// version's keys before publishing the head: the new keys cannot be
	// queried yet, so the first post-swap query lands warm.
	repaired := s.repairArtifacts(e, cur, v)
	s.met.repairs.Add(int64(repaired))

	e.shardMu.Lock()
	e.advanceShardSetsLocked(cur, v)
	e.head.Store(v.Dataset)
	e.shardMu.Unlock()
	// Retention: keep the current and previous version's artifact keys;
	// each commit retires at most the one before those.
	e.versions = append(e.versions, v.Dataset.VersionFingerprint())
	if len(e.versions) > 2 {
		retired := e.versions[0]
		e.versions = e.versions[1:]
		s.cache.purge(func(k artifactKey) bool { return k.dataset == retired })
	}
	s.met.mutations.Inc()
	// The commit histogram covers writer serialization, the storage
	// commit, artifact repair and retention — the full write-path
	// latency a client observes.
	s.met.mutationCommit.Observe(s.now().Sub(mstart))

	res := MutateResult{
		Dataset:     req.Dataset,
		Version:     v.Dataset.Version(),
		Fingerprint: v.Dataset.VersionFingerprint(),
		Applied:     len(req.Ops),
		Repaired:    repaired,
		Rows:        make(map[string]int, v.Dataset.Tree.Len()),
	}
	for i := 0; i < v.Dataset.Tree.Len(); i++ {
		id := plan.NodeID(i)
		res.Rows[v.Dataset.Tree.Name(id)] = v.Dataset.Relation(id).NumRows()
	}
	for _, d := range v.Deltas {
		if d.Compacted {
			res.Compacted = append(res.Compacted, v.Dataset.Tree.Name(d.Rel))
		}
	}
	return res, nil
}

// repairArtifacts carries the previous snapshot's cached tables onto
// the committed version's cache keys. Only unselected tables
// (maskFP == 0) are repaired — selection-shaped masks would need
// re-evaluation against the new liveness, so they rebuild cold on next
// use, as do relations the commit compacted. Repaired tables are
// produced by hashtable.ApplyDelta, bit-identical to a cold build of
// the new version, each call timed into
// m2m_artifact_build_seconds{kind="repair"}; untouched relations
// re-insert the same immutable pointers under the new key (their bytes
// are double-charged until the old version is purged — the shared
// backing arrays make the real cost far smaller, and MemoryBytes
// documents the conservative accounting).
func (s *Service) repairArtifacts(e *datasetEntry, cur *storage.Dataset, v storage.Version) int {
	newDS := v.Dataset
	deltaOf := make(map[plan.NodeID]*storage.RelationDelta, len(v.Deltas))
	for i := range v.Deltas {
		deltaOf[v.Deltas[i].Rel] = &v.Deltas[i]
	}
	repaired := 0
	for _, id := range newDS.Tree.NonRoot() {
		keyCol := e.keyCols[id]
		d := deltaOf[id]
		if d != nil && d.Compacted {
			continue
		}
		ent := s.cache.peek(artifactKey{dataset: cur.VersionFingerprint(), rel: id, keyCol: keyCol})
		if ent == nil {
			continue
		}
		nt := ent.table
		if d != nil {
			start := s.now()
			nt = nt.ApplyDelta(newDS.Relation(id), keyCol, hashtable.DeltaSpec{
				BaseRows:     newDS.BaseRows(id),
				BaseLive:     newDS.BaseLive(id),
				Live:         newDS.Live(id),
				AppendedFrom: d.AppendedFrom,
				Deleted:      d.Deleted,
			}, s.cfg.Parallelism, nil)
			s.met.repairHist.Observe(s.now().Sub(start))
		}
		nkey := artifactKey{dataset: newDS.VersionFingerprint(), rel: id, keyCol: keyCol}
		s.cache.put(&cacheEntry{key: nkey, table: nt, bytes: nt.MemoryBytes()})
		repaired++
	}
	return repaired
}
