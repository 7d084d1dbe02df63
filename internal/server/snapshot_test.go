package server

// Fault injection at the HTTP surface, run under -race by scripts/check.sh:
// POST /snapshot racing the mutation endpoints of one server.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
)

// send makes one request and decodes a 200's JSON body into out. Unlike the
// other helpers it reports failure as an error, so a goroutine besides the
// test's may call it.
func send(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var data bytes.Buffer
	if _, err := data.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d, body %s", method, url, resp.StatusCode, data.Bytes())
	}
	return json.Unmarshal(data.Bytes(), out)
}

// TestSnapshotEndpointRacingMutations drives POST /snapshot from one client
// while another ingests and deletes graphs through POST /graphs and DELETE
// /graphs/{handle}, compactions included. Every file a save wrote must load
// and hold an epoch a mutation response named and exactly the dataset of that
// epoch; that a loaded file answers as a from-scratch engine over its dataset
// is the engine's TestSnapshotRacingMutations. The save's response names the
// epoch current when the save returned, which a mutation may have moved past
// the file's by then: it is never below the file's.
func TestSnapshotEndpointRacingMutations(t *testing.T) {
	kinds := []string{"ftv", "grapes"}
	ds := psi.GeneratePPI(psi.Tiny, 5)
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{Indexes: kinds, Shards: 2, Mutable: true, CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "srv.psisnap")
	ts := httptest.NewServer(New(eng, Options{SnapshotPath: path, CacheSize: -1}))
	defer ts.Close()

	// committed[epoch] is the dataset right after the mutating client was
	// answered with the epoch; that client is the only writer, and the map is
	// read after done closes.
	committed := map[uint64][]*psi.Graph{eng.Epoch(): eng.Dataset()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := rand.New(rand.NewSource(29))
		handles := eng.Handles()
		for step := 0; step < 12; step++ {
			var epoch uint64
			if len(handles) > 3 && r.Intn(2) == 0 {
				i := r.Intn(len(handles))
				var mr MutateResponse
				if err := send(http.MethodDelete, fmt.Sprintf("%s/graphs/%d", ts.URL, handles[i]), nil, &mr); err != nil {
					t.Errorf("step %d: %v", step, err)
					return
				}
				handles, epoch = slices.Delete(handles, i, i+1), mr.Epoch
			} else {
				var buf bytes.Buffer
				if err := graph.WriteGraph(&buf, psi.ExtractQuery(ds[step%len(ds)], 6+step%4, int64(step))); err != nil {
					t.Errorf("step %d: %v", step, err)
					return
				}
				var ir IngestResponse
				if err := send(http.MethodPost, ts.URL+"/graphs", buf.Bytes(), &ir); err != nil {
					t.Errorf("step %d: %v", step, err)
					return
				}
				handles, epoch = append(handles, ir.Handles...), ir.Epoch
			}
			committed[epoch] = eng.Dataset()
		}
	}()
	type save struct {
		path  string
		epoch uint64 // the response's
	}
	var saves []save
	for saving := true; saving; { // one more save once the mutations are done
		select {
		case <-done:
			saving = false
		default:
		}
		var sr SnapshotResponse
		if err := send(http.MethodPost, ts.URL+"/snapshot", nil, &sr); err != nil {
			t.Fatalf("save %d: %v", len(saves), err)
		}
		kept := filepath.Join(dir, fmt.Sprintf("save-%d.psisnap", len(saves)))
		if err := os.Rename(path, kept); err != nil {
			t.Fatal(err)
		}
		saves = append(saves, save{kept, sr.Epoch})
	}
	epochs := map[uint64]bool{}
	for i, s := range saves {
		loaded, err := psi.NewDatasetEngine(nil, psi.EngineOptions{Snapshot: s.path, Mutable: true})
		if err != nil {
			t.Fatalf("file %d does not load: %v", i, err)
		}
		got := loaded.Dataset()
		want, ok := committed[loaded.Epoch()]
		if !ok {
			t.Fatalf("file %d holds epoch %d, which no mutation response named", i, loaded.Epoch())
		}
		epochs[loaded.Epoch()] = true
		if s.epoch < loaded.Epoch() {
			t.Errorf("file %d holds epoch %d, but its save's response names %d", i, loaded.Epoch(), s.epoch)
		}
		if !slices.EqualFunc(got, want, (*psi.Graph).Equal) {
			t.Errorf("file %d: epoch %d with %d graphs, not the %d the epoch committed", i, loaded.Epoch(), len(got), len(want))
		}
		loaded.Close()
	}
	t.Logf("%d saves over %d of %d committed epochs", len(saves), len(epochs), len(committed))
	if len(epochs) < 2 {
		t.Errorf("%d saves all hold one epoch: no save raced a mutation", len(saves))
	}
}
