package shard

import (
	"math/rand"
	"testing"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

func testDataset(t *testing.T, rows int, seed int64) *storage.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.2, 0.6, 1, 5))
	ds := workload.Generate(tree, workload.Config{DriverRows: rows, Seed: seed})
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestAssignDeterministicAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 64} {
		counts := make([]int, n)
		for row := 0; row < 10000; row++ {
			s := Assign(row, n)
			if s < 0 || s >= n {
				t.Fatalf("Assign(%d, %d) = %d out of range", row, n, s)
			}
			if s != Assign(row, n) {
				t.Fatalf("Assign(%d, %d) not deterministic", row, n)
			}
			counts[s]++
		}
		// The mixer should spread rows roughly evenly: no shard may be
		// empty or hold more than twice its fair share at 10k rows.
		for s, c := range counts {
			if c == 0 || c > 2*10000/n {
				t.Fatalf("n=%d: shard %d holds %d of 10000 rows", n, s, c)
			}
		}
	}
}

func TestPartitionCoversEveryRowExactlyOnce(t *testing.T) {
	ds := testDataset(t, 1777, 3)
	for _, n := range []int{2, 3, 4, 8} {
		shards, err := Partition(ds, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != n {
			t.Fatalf("got %d shards, want %d", len(shards), n)
		}
		requirePartitionOf(t, ds, shards)
	}
}

func TestPartitionTrivialAndEdgeCases(t *testing.T) {
	ds := testDataset(t, 300, 1)
	one, err := Partition(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if one[0].Parent != ds || one[0].Rows != nil || one[0].DriverRows() != 300 {
		t.Fatal("1-shard partition must be the whole snapshot with nil Rows")
	}
	if _, err := Partition(ds, 0); err == nil {
		t.Fatal("want error for 0 shards")
	}
	if _, err := Partition(ds, MaxShards+1); err == nil {
		t.Fatal("want error above MaxShards")
	}
	if _, err := Partition(nil, 2); err == nil {
		t.Fatal("want error for nil dataset")
	}
	// More shards than driver rows: some shards are empty.
	tiny := testDataset(t, 3, 2)
	shards, err := Partition(tiny, 8)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sh := range shards {
		total += sh.DriverRows()
	}
	if total != 3 {
		t.Fatalf("shards hold %d rows, want 3", total)
	}
}
