package main

import (
	"encoding/json"
	"testing"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/server"
)

// TestReportBytes pins psiquery's -json line: the fields of the collected
// POST /query reply in its order, without the marks only a server sets,
// then "error".
func TestReportBytes(t *testing.T) {
	res := &psi.QueryResult{Kind: psi.PlanPredicted, Winner: "GQL-DND", Found: 1, Embeddings: []psi.Embedding{{2, 0}}, Elapsed: 7 * time.Microsecond, FellBack: true}
	for _, c := range []struct {
		rep  queryReport
		want string
	}{
		{queryReport{QueryResponse: server.QueryResponse{Query: "q"}, Error: "psi: engine closed"},
			`{"query":"q","kind":"","found":0,"elapsed_us":0,"error":"psi: engine closed"}`},
		{queryReport{QueryResponse: server.NewQueryResponse("q", res)},
			`{"query":"q","kind":"predicted","winner":"GQL-DND","found":1,"embeddings":[[2,0]],"elapsed_us":7,"fell_back":true}`},
	} {
		got, err := json.Marshal(c.rep)
		if err != nil || string(got) != c.want {
			t.Errorf("report %+v encodes as %s (%v), want %s", c.rep, got, err, c.want)
		}
	}
}
