package hashtable_test

import (
	"fmt"
	"math/rand"
	"testing"

	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// The sizing harness: the hash-table kernels timed on the child
// relations of the two cold benchmark workloads, adhoc_selective
// (Star(6), 200 000 driver rows) and adhoc_blowup (Snowflake(3,2),
// 55 000 driver rows): workload.Named's selective and blowup datasets,
// generated at seed 1. Each shape reports build ns per row summed over
// its children, and ProbeBatchInto and ReduceLive ns per key with every
// child probed by its parent's key column — clustered (row order, as
// the generator lays keys out) and shuffled — over unmasked tables and
// over tables built under random live masks of density 0.7 and 0.3
// (the two sides of the half-full line where a masked build switches
// from one next slot per row to a row map). Run it from the repository
// root with
//
//	go test -run '^$' -bench Shapes -benchtime 20x ./internal/hashtable

// shapeEdge is one child relation with the keys its parent probes it by.
type shapeEdge struct {
	rel              *storage.Relation
	key              string
	clustered, mixed storage.Column // parent key column, and a shuffled copy
}

// shapeEdges generates one of workload.Named's datasets and lists its
// edges.
func shapeEdges(b *testing.B, name string, driverRows int) []shapeEdge {
	tree, err := workload.Named(name)
	if err != nil {
		b.Fatal(err)
	}
	ds := workload.Generate(tree, workload.Config{DriverRows: driverRows, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	var edges []shapeEdge
	for _, id := range tree.NonRoot() {
		key := ds.KeyColumn(id)
		probe := ds.Relation(tree.Parent(id)).Column(key)
		mixed := append(storage.Column(nil), probe...)
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		edges = append(edges, shapeEdge{ds.Relation(id), key, probe, mixed})
	}
	return edges
}

func BenchmarkShapes(b *testing.B) {
	shapes := []struct {
		name  string
		edges []shapeEdge
	}{
		{"selective", shapeEdges(b, "selective", 200_000)},
		{"blowup", shapeEdges(b, "blowup", 55_000)},
	}
	rng := rand.New(rand.NewSource(2))
	for _, density := range []float64{1, 0.7, 0.3} {
		for _, sh := range shapes {
			benchShape(b, sh.name, sh.edges, density, rng)
		}
	}
}

// benchShape times one shape's kernels over tables built under random
// live masks of the given density (1: unmasked).
func benchShape(b *testing.B, name string, edges []shapeEdge, density float64, rng *rand.Rand) {
	if density < 1 {
		name = fmt.Sprintf("%s-live%.1f", name, density)
	}
	lives := make([]*storage.Bitmap, len(edges))
	tables := make([]*hashtable.Table, len(edges))
	rows, keys := 0, 0
	for i, e := range edges {
		if density < 1 {
			lives[i] = storage.NewEmptyBitmap(e.rel.NumRows())
			for r := range e.rel.NumRows() {
				if rng.Float64() < density {
					lives[i].Set(r)
				}
			}
		}
		tables[i] = hashtable.Build(e.rel, e.key, lives[i])
		rows += e.rel.NumRows()
		keys += len(e.clustered)
	}
	b.Run(name+"/build", func(b *testing.B) {
		for range b.N {
			for i, e := range edges {
				hashtable.Build(e.rel, e.key, lives[i])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	})
	for _, order := range []string{"clustered", "shuffled"} {
		col := func(e shapeEdge) storage.Column {
			if order == "clustered" {
				return e.clustered
			}
			return e.mixed
		}
		b.Run(fmt.Sprintf("%s/probe-%s", name, order), func(b *testing.B) {
			var res hashtable.ProbeResult
			for range b.N {
				for i, e := range edges {
					c := col(e)
					for lo := 0; lo < len(c); lo += 2048 {
						tables[i].ProbeBatchInto(c[lo:min(lo+2048, len(c))], nil, &res)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
		})
		b.Run(fmt.Sprintf("%s/reduce-%s", name, order), func(b *testing.B) {
			masks := make([]*storage.Bitmap, len(edges))
			for i, e := range edges {
				masks[i] = storage.NewBitmap(len(e.clustered))
			}
			live := make([]*storage.Bitmap, len(edges))
			for i := range live {
				live[i] = masks[i].Clone()
			}
			for range b.N {
				for i, e := range edges {
					live[i].CopyFrom(masks[i])
					tables[i].ReduceLive(col(e), live[i], 0, live[i].Len())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
		})
	}
}
