package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line).
// Lines starting with '#' or '%' are comments. Node labels may be arbitrary
// non-negative integers; they are relabeled densely in order of first
// appearance. A negative label is an error. Returns the graph and the
// mapping newID -> original label.
func ReadEdgeList(r io.Reader) (*Graph, []int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	idx := make(map[int]int)
	var labels []int
	var edges []Edge
	line := 0
	for sc.Scan() {
		line++
		t := strings.TrimSpace(sc.Text())
		if t == "" || strings.HasPrefix(t, "#") || strings.HasPrefix(t, "%") {
			continue
		}
		fields := strings.Fields(t)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want two fields, got %q", line, t)
		}
		var ends [2]int
		for i, f := range fields[:2] {
			label, err := strconv.Atoi(f)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if label < 0 {
				return nil, nil, fmt.Errorf("graph: line %d: negative node label %d", line, label)
			}
			id, ok := idx[label]
			if !ok {
				id = len(labels)
				idx[label] = id
				labels = append(labels, label)
			}
			ends[i] = id
		}
		edges = append(edges, Edge{ends[0], ends[1]})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return FromEdgeLists(len(labels), edges), labels, nil
}

// WriteEdgeList writes the graph as "u v" lines (U <= V, sorted).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadEdgeList reads an edge-list file from disk.
func LoadEdgeList(path string) (*Graph, []int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// SaveEdgeList writes the graph to an edge-list file.
func SaveEdgeList(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
