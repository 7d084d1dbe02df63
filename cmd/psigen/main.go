// Command psigen generates datasets and query workloads in the module's
// text format (see internal/graph/io.go), so experiments can be re-run on
// fixed inputs or inspected by other tools.
//
// Usage:
//
//	psigen -dataset synthetic|ppi|yeast|human|wordnet [-scale tiny] [-seed 1]
//	       [-out dataset.txt] [-queries 20 -sizes 8,16 -qout queries.txt]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/psi-graph/psi/internal/gen"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/workload"
)

func main() {
	var (
		dsFlag      = flag.String("dataset", "synthetic", "dataset: synthetic|ppi|yeast|human|wordnet")
		scaleFlag   = flag.String("scale", "tiny", "dataset scale: tiny|small|medium|paper")
		seedFlag    = flag.Int64("seed", 1, "generator seed")
		outFlag     = flag.String("out", "", "output file for the dataset (default: stdout)")
		queriesFlag = flag.Int("queries", 0, "if > 0, also generate this many queries per size")
		sizesFlag   = flag.String("sizes", "8,16", "comma-separated query sizes in edges")
		qoutFlag    = flag.String("qout", "", "output file for queries (default: stdout)")
	)
	flag.Parse()

	scale, err := gen.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	ds, err := gen.Dataset(*dsFlag, scale, *seedFlag)
	if err != nil {
		fatal(err)
	}

	if err := writeTo(*outFlag, func(w io.Writer) error {
		return graph.WriteDataset(w, ds)
	}); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "psigen: wrote %d graph(s) (%s, scale %s)\n", len(ds), *dsFlag, scale)

	if *queriesFlag > 0 {
		var sizes []int
		for _, s := range strings.Split(*sizesFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fatal(fmt.Errorf("bad size %q", s))
			}
			sizes = append(sizes, n)
		}
		qs := workload.Generate(ds, sizes, *queriesFlag, *seedFlag+1)
		graphs := make([]*graph.Graph, len(qs))
		for i, q := range qs {
			graphs[i] = q.Graph
		}
		if err := writeTo(*qoutFlag, func(w io.Writer) error {
			return graph.WriteDataset(w, graphs)
		}); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "psigen: wrote %d queries (sizes %v)\n", len(qs), sizes)
	}
}

func writeTo(path string, f func(io.Writer) error) error {
	if path == "" {
		return f(os.Stdout)
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psigen:", err)
	os.Exit(1)
}
