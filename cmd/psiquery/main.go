// Command psiquery runs subgraph queries from files through a psi.Engine,
// with a single algorithm, a Ψ-framework race, or the learned per-query-class
// policy. Its engine flags are psiserve's (internal/cli), defaults included
// (GQL,SPA over Orig,DND, -mode race, -index race): a dataset engine for more
// than one graph or an explicit -index, else a stored-graph engine. Every
// flag value is checked before either file is read.
//
// NFV (single stored graph): match every query, report embeddings found,
// winner and time per query.
//
//	psiquery -data yeast.txt -queries q.txt -algos GQL,SPA -rewritings Or,DND
//	psiquery -data yeast.txt -queries q.txt -mode auto -json
//
// FTV (multi-graph dataset): filter-then-verify decision over one path
// table, verified as the flat path index, Grapes or GGSX do — or by several
// of them raced per candidate — with rewritings raced in the verification
// stage.
//
//	psiquery -data ppi.txt -queries q.txt -index grapes -workers 4 -rewritings ILF,IND,DND
//	psiquery -data ppi.txt -queries q.txt -index race            # verifiers of ftv|grapes|ggsx raced
//	psiquery -data ppi.txt -queries q.txt -index ftv,grapes -mode single  # the first name's verifier alone
//
// -json prints, per query, the object psiserve's POST /query returns for it
// (without the cached and coalesced marks, which only a server sets), plus
// "error" when the query failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/cli"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/server"
)

func main() {
	var (
		ef          cli.Flags
		dataFlag    = flag.String("data", "", "stored graph / dataset file (required)")
		queriesFlag = flag.String("queries", "", "query file (required)")
		jsonFlag    = flag.Bool("json", false, "emit one JSON object per query instead of text")
		limitFlag   = flag.Int("limit", 1000, "max embeddings per query (NFV)")
	)
	ef.Register(flag.CommandLine)
	flag.Parse()
	if *dataFlag == "" || *queriesFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	cfg, err := ef.Parse(explicit)
	if err != nil {
		fatal(err)
	}
	ds, err := readFile(*dataFlag)
	if err != nil {
		fatal(err)
	}
	queries, err := readFile(*queriesFlag)
	if err != nil {
		fatal(err)
	}
	if len(ds) == 0 {
		fatal(fmt.Errorf("dataset %s is empty", *dataFlag))
	}
	eng, err := cfg.NewEngine(ds)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	runQueries(eng, queries, *limitFlag, *jsonFlag)
}

// queryReport is the -json output schema, one object per line per query:
// the object POST /query returns, plus the query's error.
type queryReport struct {
	server.QueryResponse
	Error string `json:"error,omitempty"`
}

// runQueries plans and executes every query on the engine; a dataset engine
// ignores the limit and prints the containing graphs.
func runQueries(eng *psi.Engine, queries []*graph.Graph, limit int, asJSON bool) {
	datasetSize := len(eng.Dataset())
	out := json.NewEncoder(os.Stdout)
	for _, q := range queries {
		res, err := eng.Query(context.Background(), q, limit)
		if asJSON {
			rep := queryReport{QueryResponse: server.QueryResponse{Query: q.Name()}}
			if err != nil {
				rep.Error = err.Error()
			} else {
				rep.QueryResponse = server.NewQueryResponse(q.Name(), res)
			}
			if eerr := out.Encode(rep); eerr != nil {
				fatal(eerr)
			}
			continue
		}
		switch {
		case err != nil:
			fmt.Printf("%-12s FAILED (%v)\n", q.Name(), err)
		case res.Killed:
			fmt.Printf("%-12s KILLED after %v\n", q.Name(), res.Elapsed.Round(time.Microsecond))
		case datasetSize > 0:
			fmt.Printf("%-12s contained in %d/%d graph(s) %v  %v\n",
				q.Name(), len(res.GraphIDs), datasetSize, res.GraphIDs, res.Elapsed.Round(time.Microsecond))
		default:
			note := ""
			if res.FellBack {
				note = "  (solo fell back to race)"
			}
			fmt.Printf("%-12s %4d embedding(s)  winner=%-12s  plan=%-9s %v%s\n",
				q.Name(), res.Found, res.Winner, res.Kind, res.Elapsed.Round(time.Microsecond), note)
		}
	}
}

func readFile(path string) ([]*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadDataset(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "psiquery:", err)
	os.Exit(1)
}
