package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m2mjoin/internal/plan"
)

func TestCSVRoundTrip(t *testing.T) {
	r := NewRelation("R", "id", "a", "b")
	r.AppendRow(0, -5, 1<<40)
	r.AppendRow(1, 7, -1)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRelationCSV("R", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 || got.NumCols() != 3 {
		t.Fatalf("dims = %dx%d", got.NumRows(), got.NumCols())
	}
	if got.Column("b")[0] != 1<<40 || got.Column("a")[0] != -5 {
		t.Errorf("values corrupted: %v", got.Column("b"))
	}
}

func TestCSVEmptyRelation(t *testing.T) {
	r := NewRelation("E", "x")
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRelationCSV("E", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Errorf("rows = %d", got.NumRows())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadRelationCSV("X", strings.NewReader("")); err == nil {
		t.Errorf("expected error for empty input")
	}
	if _, err := ReadRelationCSV("X", strings.NewReader("a,b\n1,notanumber\n")); err == nil {
		t.Errorf("expected error for non-integer value")
	}
	if _, err := ReadRelationCSV("X", strings.NewReader("a,b\n1\n")); err == nil {
		t.Errorf("expected error for short row")
	}
	if _, err := ReadRelationCSV("X", strings.NewReader("a,a\n1,2\n")); err == nil || !strings.Contains(err.Error(), "repeats column") {
		t.Errorf("repeated header column: err = %v, want an error naming it", err)
	}
}

func TestSaveLoadDataset(t *testing.T) {
	tr := plan.NewTree("R1")
	c := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 2.5}, "R2")
	tr.AddChild(c, plan.EdgeStats{M: 0.75, Fo: 1}, "R3")

	ds := NewDataset(tr)
	r1 := NewRelation("R1", "id", "k1")
	r1.AppendRow(0, 100)
	r1.AppendRow(1, 101)
	r2 := NewRelation("R2", "id", "k1", "k2")
	r2.AppendRow(0, 100, 200)
	r3 := NewRelation("R3", "id", "k2")
	r3.AppendRow(0, 200)
	ds.SetRelation(plan.Root, r1, "")
	ds.SetRelation(1, r2, "k1")
	ds.SetRelation(2, r3, "k2")

	dir := t.TempDir()
	if err := SaveDataset(ds, dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tree.Len() != 3 {
		t.Fatalf("tree size = %d", got.Tree.Len())
	}
	if got.Tree.Name(2) != "R3" || got.Tree.Parent(2) != 1 {
		t.Errorf("tree structure lost")
	}
	st := got.Tree.Stats(1)
	if st.M != 0.5 || st.Fo != 2.5 {
		t.Errorf("stats lost: %+v", st)
	}
	if got.KeyColumn(2) != "k2" {
		t.Errorf("key column lost")
	}
	if got.Relation(1).Column("k2")[0] != 200 {
		t.Errorf("relation data lost")
	}
	if err := got.Validate(); err != nil {
		t.Errorf("loaded dataset invalid: %v", err)
	}
}

// TestLoadDatasetErrors: a manifest LoadDataset cannot build a tree
// from is an error naming the problem, never a panic — the directory
// is outside input (POST /v1/datasets).
func TestLoadDatasetErrors(t *testing.T) {
	node := func(id, parent int, m, fo string) string {
		return fmt.Sprintf(`{"id":%d,"name":"R%d","parent":%d,"key":"k"%s%s,"file":"r.csv"}`, id, id, parent, m, fo)
	}
	wide := []string{node(0, 0, "", "")}
	for id := 1; id <= 64; id++ {
		wide = append(wide, node(id, 0, `,"m":0.5`, `,"fo":1`))
	}
	manifest := func(nodes ...string) string { return `{"nodes":[` + strings.Join(nodes, ",") + `]}` }
	cases := []struct {
		name, manifest, want string
	}{
		{"missing manifest", "", "manifest.json"},
		{"missing m", manifest(node(0, 0, "", ""), node(1, 0, "", `,"fo":2`)), "match probability m = 0"},
		{"fo below 1", manifest(node(0, 0, "", ""), node(1, 0, `,"m":0.5`, `,"fo":0.5`)), "fanout fo = 0.5"},
		{"parent out of range", manifest(node(0, 0, "", ""), node(1, 7, `,"m":0.5`, `,"fo":2`)), "parent 7"},
		{"65th node", manifest(wide...), "at most 64"},
		{"root not node 0", manifest(node(3, 0, "", "")), "root has ID 3"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		if tc.manifest != "" {
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(tc.manifest), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := LoadDataset(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}
