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
// FTV (multi-graph dataset): filter-then-verify decision over one path
// table, verified as the flat path index, Grapes or GGSX do — or by several
// of them raced per candidate — with rewritings raced in the verification
// stage.
//
//	psiquery -data ppi.txt -queries q.txt -index grapes -workers 4 -rewritings ILF,IND,DND
//	psiquery -data ppi.txt -queries q.txt -index race            # verifiers of ftv|grapes|ggsx raced
//	psiquery -data ppi.txt -queries q.txt -index ftv,grapes -mode single  # the first name's verifier alone
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

// engineFlags are the flag values that configure the engine.
type engineFlags struct {
	algos, rewritings, mode, index string
	workers                        int
	timeout                        time.Duration
}

func main() {
	var f engineFlags
	var (
		dataFlag    = flag.String("data", "", "stored graph / dataset file (required)")
		queriesFlag = flag.String("queries", "", "query file (required)")
		jsonFlag    = flag.Bool("json", false, "emit one JSON object per query instead of text")
		limitFlag   = flag.Int("limit", 1000, "max embeddings per query (NFV)")
	)
	flag.StringVar(&f.algos, "algos", "GQL", "comma-separated NFV algorithms: GQL,SPA,QSI,VF2")
	flag.StringVar(&f.rewritings, "rewritings", "Orig", "comma-separated rewritings: Orig,ILF,IND,DND,ILF+IND,ILF+DND")
	flag.StringVar(&f.mode, "mode", "race", "planning policy: race|single|auto (on a dataset: race, the first -index name's verifier alone, or learned)")
	flag.StringVar(&f.index, "index", "", "FTV indexes for multi-graph datasets: ftv|grapes|ggsx, a comma list, or race (all)")
	flag.IntVar(&f.workers, "workers", 1, "Grapes worker count")
	flag.DurationVar(&f.timeout, "timeout", 10*time.Minute, "per-query kill cap")
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
	if len(ds) == 0 {
		fatal(fmt.Errorf("dataset %s is empty", *dataFlag))
	}
	eng, err := newEngine(ds, f)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	if eng.Graph() != nil {
		runQueries(eng, queries, 0, *limitFlag, *jsonFlag)
	} else {
		runQueries(eng, queries, len(ds), 0, *jsonFlag)
	}
}

// datasetPolicy is the index policy that spells each -mode on a dataset,
// whose engine reads IndexPolicy, not Mode.
var datasetPolicy = map[psi.Mode]string{psi.ModeRace: psi.IndexRace, psi.ModeSingle: psi.IndexFixed, psi.ModeAuto: psi.IndexAuto}

// newEngine builds the engine the flags describe over ds: a dataset engine
// for several graphs or any -index, else a stored-graph engine over the one.
func newEngine(ds []*graph.Graph, f engineFlags) (*psi.Engine, error) {
	rewritings, err := psi.ParseRewritings(f.rewritings)
	if err != nil {
		return nil, err
	}
	mode, err := psi.ParseMode(f.mode)
	if err != nil {
		return nil, err
	}
	indexes, err := psi.ParseIndexSpec(f.index)
	if err != nil {
		return nil, err
	}
	opts := psi.EngineOptions{
		Rewritings:   rewritings,
		Timeout:      f.timeout,
		Indexes:      indexes,
		IndexWorkers: f.workers,
	}
	if len(ds) > 1 || f.index != "" {
		opts.IndexPolicy = datasetPolicy[mode]
		return psi.NewDatasetEngine(ds, opts)
	}
	opts.Mode = mode
	if opts.Algorithms, err = psi.ParseAlgorithms(f.algos); err != nil {
		return nil, err
	}
	return psi.NewEngine(ds[0], opts)
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
