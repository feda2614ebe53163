package storage

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"m2mjoin/internal/plan"
)

// This file provides dataset persistence: relations as CSV files plus
// a JSON manifest describing the join tree, so generated workloads can
// be saved, inspected, and reloaded (cmd/m2mdata).

// WriteCSV writes the relation as CSV with a header row.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.names); err != nil {
		return err
	}
	row := make([]string, len(r.cols))
	for i := 0; i < r.NumRows(); i++ {
		for c := range r.cols {
			row[c] = strconv.FormatInt(r.cols[c][i], 10)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadRelationCSV reads a relation written by WriteCSV. The first row
// is the header; all values must be integers.
func ReadRelationCSV(name string, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("storage: reading CSV header: %w", err)
	}
	for i, col := range header {
		if slices.Contains(header[:i], col) {
			return nil, fmt.Errorf("storage: CSV header repeats column %q", col)
		}
	}
	rel := NewRelation(name, append([]string(nil), header...)...)
	values := make([]int64, len(header))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return rel, nil
		}
		if err != nil {
			return nil, fmt.Errorf("storage: reading CSV: %w", err)
		}
		for i, s := range rec {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("storage: line %d column %q: %w", line, header[i], err)
			}
			values[i] = v
		}
		rel.AppendRow(values...)
	}
}

// maxTreeNodes is the most relations a join tree holds: one bit of a
// plan.Set per node.
const maxTreeNodes = 64

// manifest is the on-disk description of a dataset.
type manifest struct {
	Nodes []manifestNode `json:"nodes"`
}

type manifestNode struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Key    string  `json:"key,omitempty"`
	M      float64 `json:"m,omitempty"`
	Fo     float64 `json:"fo,omitempty"`
	File   string  `json:"file"`
}

// SaveDataset writes the dataset into dir: one CSV per relation plus
// manifest.json. The directory is created if needed.
func SaveDataset(ds *Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	var m manifest
	for i := 0; i < ds.Tree.Len(); i++ {
		id := plan.NodeID(i)
		rel := ds.Relation(id)
		file := fmt.Sprintf("rel_%02d_%s.csv", i, rel.Name())
		node := manifestNode{
			ID:     i,
			Name:   ds.Tree.Name(id),
			Parent: int(ds.Tree.Parent(id)),
			File:   file,
		}
		if id != plan.Root {
			st := ds.Tree.Stats(id)
			node.Key = ds.KeyColumn(id)
			node.M = st.M
			node.Fo = st.Fo
		}
		m.Nodes = append(m.Nodes, node)

		f, err := os.Create(filepath.Join(dir, file))
		if err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		werr := rel.WriteCSV(f)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("storage: writing %s: %w", file, werr)
		}
		if cerr != nil {
			return fmt.Errorf("storage: closing %s: %w", file, cerr)
		}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// LoadDataset reads a dataset written by SaveDataset.
func LoadDataset(dir string) (*Dataset, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("storage: parsing manifest: %w", err)
	}
	if len(m.Nodes) == 0 {
		return nil, fmt.Errorf("storage: empty manifest")
	}
	// Nodes are stored in ID order; AddChild assigns ascending IDs, and
	// parents always precede children (plan invariant). The manifest is
	// outside input and AddChild panics on a node it cannot add, so each
	// node is checked first.
	if m.Nodes[0].ID != 0 {
		return nil, fmt.Errorf("storage: manifest root has ID %d, want 0", m.Nodes[0].ID)
	}
	tree := plan.NewTree(m.Nodes[0].Name)
	for _, n := range m.Nodes[1:] {
		switch {
		case tree.Len() == maxTreeNodes:
			return nil, fmt.Errorf("storage: manifest has %d nodes, a join tree holds at most %d", len(m.Nodes), maxTreeNodes)
		case n.Parent < 0 || n.Parent >= tree.Len():
			return nil, fmt.Errorf("storage: manifest node %d: parent %d is not an earlier node", n.ID, n.Parent)
		case !(n.M > 0 && n.M <= 1):
			return nil, fmt.Errorf("storage: manifest node %d: match probability m = %v out of (0, 1]", n.ID, n.M)
		case !(n.Fo >= 1):
			return nil, fmt.Errorf("storage: manifest node %d: fanout fo = %v below 1", n.ID, n.Fo)
		}
		got := tree.AddChild(plan.NodeID(n.Parent), plan.EdgeStats{M: n.M, Fo: n.Fo}, n.Name)
		if int(got) != n.ID {
			return nil, fmt.Errorf("storage: manifest node IDs not in insertion order (%d vs %d)", got, n.ID)
		}
	}
	ds := NewDataset(tree)
	for _, n := range m.Nodes {
		f, err := os.Open(filepath.Join(dir, n.File))
		if err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		rel, rerr := ReadRelationCSV(n.Name, f)
		cerr := f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("storage: reading %s: %w", n.File, rerr)
		}
		if cerr != nil {
			return nil, cerr
		}
		ds.SetRelation(plan.NodeID(n.ID), rel, n.Key)
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("storage: loaded dataset invalid: %w", err)
	}
	return ds, nil
}
