package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The text format is a line-oriented dialect of the .gfu format used by the
// Grapes/GGSX distributions:
//
//	#<graph name>
//	<number of vertices n>
//	<label of vertex 0>
//	...
//	<label of vertex n-1>
//	<number of edges m>
//	<u> <v> [<edge label>]   (m lines, 0-based vertex IDs)
//
// The edge label defaults to 0 when omitted, and is omitted on output for
// label-0 edges, so edge-unlabeled files round-trip byte-identically.
// A dataset file is simply a concatenation of graphs.

// WriteGraph serializes g in the text format.
func WriteGraph(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#%s\n%d\n", g.Name(), g.N())
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(bw, "%d\n", g.Label(v))
	}
	fmt.Fprintf(bw, "%d\n", g.M())
	var err error
	g.LabeledEdges(func(u, v int, l Label) {
		if err != nil {
			return
		}
		if l == 0 {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d %d\n", u, v, l)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WriteDataset serializes each graph in order.
func WriteDataset(w io.Writer, graphs []*Graph) error {
	for _, g := range graphs {
		if err := WriteGraph(w, g); err != nil {
			return err
		}
	}
	return nil
}

// parseLabel parses a vertex or edge label: a decimal that Label holds, not
// negative. A larger number is refused, not wrapped into some other label.
func parseLabel(what, s string) (Label, error) {
	l, err := strconv.ParseInt(s, 10, 32)
	if errors.Is(err, strconv.ErrRange) || (err == nil && l < 0) {
		return 0, fmt.Errorf("%s %q out of range [0, %d]", what, s, math.MaxInt32)
	}
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", what, s)
	}
	return Label(l), nil
}

// ReadDataset parses a concatenation of graphs in the text format.
func ReadDataset(r io.Reader) ([]*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var graphs []*Graph
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			t := strings.TrimSpace(sc.Text())
			if t != "" {
				return t, true
			}
		}
		return "", false
	}
	for {
		hdr, ok := next()
		if !ok {
			break
		}
		if !strings.HasPrefix(hdr, "#") {
			return nil, fmt.Errorf("line %d: expected graph header starting with '#', got %q", line, hdr)
		}
		name := strings.TrimPrefix(hdr, "#")
		nStr, ok := next()
		if !ok {
			return nil, fmt.Errorf("line %d: missing vertex count for graph %q", line, name)
		}
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("line %d: bad vertex count %q", line, nStr)
		}
		b := NewBuilder(name)
		for i := 0; i < n; i++ {
			lStr, ok := next()
			if !ok {
				return nil, fmt.Errorf("line %d: missing label %d/%d for graph %q", line, i, n, name)
			}
			l, err := parseLabel("label", lStr)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			b.AddVertex(l)
		}
		mStr, ok := next()
		if !ok {
			return nil, fmt.Errorf("line %d: missing edge count for graph %q", line, name)
		}
		m, err := strconv.Atoi(mStr)
		if err != nil || m < 0 {
			return nil, fmt.Errorf("line %d: bad edge count %q", line, mStr)
		}
		for i := 0; i < m; i++ {
			eStr, ok := next()
			if !ok {
				return nil, fmt.Errorf("line %d: missing edge %d/%d for graph %q", line, i, m, name)
			}
			fields := strings.Fields(eStr)
			if len(fields) != 2 && len(fields) != 3 {
				return nil, fmt.Errorf("line %d: bad edge line %q", line, eStr)
			}
			u, err1 := strconv.Atoi(fields[0])
			v, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad edge endpoints %q", line, eStr)
			}
			var el Label
			if len(fields) == 3 {
				if el, err = parseLabel("edge label", fields[2]); err != nil {
					return nil, fmt.Errorf("line %d: %w", line, err)
				}
			}
			if err := b.AddLabeledEdge(u, v, el); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
		}
		g, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("graph %q ending at line %d: %w", name, line, err)
		}
		graphs = append(graphs, g)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return graphs, nil
}
