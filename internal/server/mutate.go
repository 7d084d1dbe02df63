package server

// Online-mutation endpoints over a mutable dataset engine: POST /graphs
// ingests graphs, DELETE /graphs/{handle} removes one, PUT /graphs/{handle}
// replaces one in place. Every mutation response carries the dataset epoch
// it produced, so a client can correlate its write with the epoch reported
// by subsequent query responses, /stats and /healthz.
//
// Mutations go through the same admission gate as queries: they claim an
// in-flight slot (429 at capacity, 503 while draining) and are tracked by
// the drain WaitGroup, so Shutdown never abandons a half-applied ingest.
// The engine itself serializes mutations; concurrent queries keep answering
// on the epoch snapshot they started on.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
)

// IngestResponse is the POST /graphs response: one handle per graph in the
// request body, in body order, plus the epoch after the last insert.
type IngestResponse struct {
	Handles []psi.GraphHandle `json:"handles"`
	Epoch   uint64            `json:"epoch"`
}

// MutateResponse is the DELETE/PUT /graphs/{handle} response.
type MutateResponse struct {
	Handle    psi.GraphHandle `json:"handle"`
	Compacted bool            `json:"compacted,omitempty"`
	Epoch     uint64          `json:"epoch"`
}

// admitMutation runs the shared admission/readiness/mutability preamble.
// On success the engine and a release func are returned; otherwise the
// response has been written and eng is nil.
func (s *Server) admitMutation(w http.ResponseWriter) (eng *psi.Engine, release func()) {
	release, status := s.admit()
	if status != 0 {
		s.writeOverloaded(w, status)
		return nil, nil
	}
	eng = s.Engine()
	if eng == nil {
		release()
		writeJSONError(w, http.StatusServiceUnavailable, "engine is building")
		return nil, nil
	}
	if !eng.Mutable() {
		release()
		writeJSONError(w, http.StatusConflict, "engine is not mutable (start with -mutable)")
		return nil, nil
	}
	return eng, release
}

// handleAddGraphs is POST /graphs: the body holds one or more graphs in the
// module's text format; each is ingested in order and assigned a handle.
func (s *Server) handleAddGraphs(w http.ResponseWriter, r *http.Request) {
	eng, release := s.admitMutation(w)
	if eng == nil {
		return
	}
	defer release()
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	graphs, err := graph.ReadDataset(body)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("parsing graphs: %v", err))
		return
	}
	if len(graphs) == 0 {
		writeJSONError(w, http.StatusBadRequest, "no graphs in the request body")
		return
	}
	ctx, cancel := s.requestContext(r, s.opts.RequestTimeout)
	defer cancel()
	handles := make([]psi.GraphHandle, 0, len(graphs))
	for i, g := range graphs {
		h, err := eng.AddGraph(ctx, g)
		if err != nil {
			writeJSONError(w, http.StatusInternalServerError,
				fmt.Sprintf("ingesting graph %d/%d (%d added): %v", i+1, len(graphs), len(handles), err))
			return
		}
		handles = append(handles, h)
	}
	writeJSON(w, http.StatusOK, IngestResponse{Handles: handles, Epoch: eng.Epoch()})
}

// handleRemoveGraph is DELETE /graphs/{handle}: tombstones the graph, which
// may trigger a shard-local compaction (reported in the response).
func (s *Server) handleRemoveGraph(w http.ResponseWriter, r *http.Request) {
	eng, release := s.admitMutation(w)
	if eng == nil {
		return
	}
	defer release()
	h, ok := parseHandle(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, s.opts.RequestTimeout)
	defer cancel()
	compacted, err := eng.RemoveGraph(ctx, h)
	if err != nil {
		writeMutationError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{Handle: h, Compacted: compacted, Epoch: eng.Epoch()})
}

// handleReplaceGraph is PUT /graphs/{handle}: the body holds exactly one
// graph that replaces the addressed one in place — same handle, same shard.
func (s *Server) handleReplaceGraph(w http.ResponseWriter, r *http.Request) {
	eng, release := s.admitMutation(w)
	if eng == nil {
		return
	}
	defer release()
	h, ok := parseHandle(w, r)
	if !ok {
		return
	}
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	graphs, err := graph.ReadDataset(body)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("parsing graph: %v", err))
		return
	}
	if len(graphs) != 1 {
		writeJSONError(w, http.StatusBadRequest,
			fmt.Sprintf("want exactly 1 replacement graph in the body, got %d", len(graphs)))
		return
	}
	ctx, cancel := s.requestContext(r, s.opts.RequestTimeout)
	defer cancel()
	if err := eng.ReplaceGraph(ctx, h, graphs[0]); err != nil {
		writeMutationError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{Handle: h, Epoch: eng.Epoch()})
}

// parseHandle decodes the {handle} path segment, writing the 400 itself on
// a malformed one.
func parseHandle(w http.ResponseWriter, r *http.Request) (psi.GraphHandle, bool) {
	v := r.PathValue("handle")
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad graph handle %q", v))
		return 0, false
	}
	return psi.GraphHandle(n), true
}

// writeMutationError maps an engine mutation error onto an HTTP status:
// a handle the engine never issued (or already removed) is the client's
// 404; anything else is a server-side 500.
func writeMutationError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, psi.ErrUnknownGraph) {
		status = http.StatusNotFound
	}
	writeJSONError(w, status, err.Error())
}
