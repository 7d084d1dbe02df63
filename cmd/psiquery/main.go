// Command psiquery runs subgraph queries from files through a psi.Engine,
// with a single algorithm, a Ψ-framework race, or the learned per-query-class
// policy.
//
// NFV (single stored graph): match every query, report embeddings found,
// winner and time per query.
//
//	psiquery -data yeast.txt -queries q.txt -algos GQL,SPA -rewritings Or,DND
//	psiquery -data yeast.txt -queries q.txt -mode auto -json
//
// FTV (multi-graph dataset): filter-then-verify decision with the flat
// path index, Grapes or GGSX — or a race of several — with rewritings
// raced in the verification stage.
//
//	psiquery -data ppi.txt -queries q.txt -index grapes -workers 4 -rewritings ILF,IND,DND
//	psiquery -data ppi.txt -queries q.txt -index race            # race ftv|grapes|ggsx
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
)

func main() {
	var (
		dataFlag    = flag.String("data", "", "stored graph / dataset file (required)")
		queriesFlag = flag.String("queries", "", "query file (required)")
		algosFlag   = flag.String("algos", "GQL", "comma-separated NFV algorithms: GQL,SPA,QSI,VF2")
		rewrFlag    = flag.String("rewritings", "Orig", "comma-separated rewritings: Orig,ILF,IND,DND,ILF+IND,ILF+DND")
		modeFlag    = flag.String("mode", "race", "planning policy: race|single|auto")
		jsonFlag    = flag.Bool("json", false, "emit one JSON object per query instead of text")
		indexFlag   = flag.String("index", "", "FTV indexes for multi-graph datasets: ftv|grapes|ggsx, a comma list, or race (all)")
		workersFlag = flag.Int("workers", 1, "Grapes worker count")
		limitFlag   = flag.Int("limit", 1000, "max embeddings per query (NFV)")
		capFlag     = flag.Duration("timeout", 10*time.Minute, "per-query kill cap")
	)
	flag.Parse()
	if *dataFlag == "" || *queriesFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	ds, err := readFile(*dataFlag)
	if err != nil {
		fatal(err)
	}
	queries, err := readFile(*queriesFlag)
	if err != nil {
		fatal(err)
	}
	kinds, err := psi.ParseRewritings(*rewrFlag)
	if err != nil {
		fatal(err)
	}
	mode, err := psi.ParseMode(*modeFlag)
	if err != nil {
		fatal(err)
	}
	if len(ds) == 0 {
		fatal(fmt.Errorf("dataset %s is empty", *dataFlag))
	}
	indexKinds, err := psi.ParseIndexSpec(*indexFlag)
	if err != nil {
		fatal(err)
	}
	opts := psi.EngineOptions{
		Rewritings:   kinds,
		Mode:         mode,
		Timeout:      *capFlag,
		Indexes:      indexKinds,
		IndexWorkers: *workersFlag,
	}
	if len(ds) > 1 || *indexFlag != "" {
		eng, err := psi.NewDatasetEngine(ds, opts)
		if err != nil {
			fatal(err)
		}
		defer eng.Close()
		runQueries(eng, queries, len(ds), 0, *jsonFlag)
		return
	}
	opts.Algorithms, err = psi.ParseAlgorithms(*algosFlag)
	if err != nil {
		fatal(err)
	}
	eng, err := psi.NewEngine(ds[0], opts)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	runQueries(eng, queries, 0, *limitFlag, *jsonFlag)
}

// queryReport is the -json output schema, one object per line per query.
type queryReport struct {
	Query      string          `json:"query"`
	Kind       string          `json:"kind"`
	Winner     string          `json:"winner,omitempty"`
	Found      int             `json:"found"`
	Embeddings []psi.Embedding `json:"embeddings,omitempty"`
	GraphIDs   []int           `json:"graph_ids,omitempty"`
	ElapsedUS  int64           `json:"elapsed_us"`
	Killed     bool            `json:"killed,omitempty"`
	FellBack   bool            `json:"fell_back,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// runQueries plans and executes every query on the engine; datasetSize > 0
// marks the FTV formatting path.
func runQueries(eng *psi.Engine, queries []*graph.Graph, datasetSize, limit int, asJSON bool) {
	out := json.NewEncoder(os.Stdout)
	for _, q := range queries {
		res, err := eng.Query(context.Background(), q, limit)
		if asJSON {
			rep := queryReport{Query: q.Name()}
			if err != nil {
				rep.Error = err.Error()
			} else {
				rep.Kind = string(res.Kind)
				rep.Winner = res.Winner
				rep.Found = res.Found
				rep.Embeddings = res.Embeddings
				rep.GraphIDs = res.GraphIDs
				rep.ElapsedUS = res.Elapsed.Microseconds()
				rep.Killed = res.Killed
				rep.FellBack = res.FellBack
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
