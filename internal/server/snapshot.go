package server

// POST /snapshot persists the served engine's full state — dataset CSR
// arrays, every index's features, and (on mutable engines) the mutation
// state — to the path configured by Options.SnapshotPath, through the
// snapshot package's atomic write. The engine serializes the save against
// mutations internally, so the file is always one consistent epoch; a
// server restarted with -snapshot on that path cold-starts near-instantly
// from it. The endpoint goes through the same admission gate as queries, so
// a drain never abandons a half-written file (the atomic rename means there
// is no such thing on disk anyway) and saves count against capacity.

import (
	"fmt"
	"net/http"
	"time"
)

// SnapshotResponse is the POST /snapshot response.
type SnapshotResponse struct {
	Path string `json:"path"`
	// Epoch is the dataset epoch when the save returned. A mutation that
	// commits while the response is written moves it past the file's, so it
	// is at least the epoch the file holds, not necessarily that epoch.
	Epoch     uint64 `json:"epoch"`
	ElapsedUS int64  `json:"elapsed_us"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	release, status := s.admit()
	if status != 0 {
		s.writeOverloaded(w, status)
		return
	}
	defer release()
	if s.opts.SnapshotPath == "" {
		writeJSONError(w, http.StatusConflict, "snapshots are not configured (start with -snapshot)")
		return
	}
	eng := s.Engine()
	if eng == nil {
		writeJSONError(w, http.StatusServiceUnavailable, "engine is building")
		return
	}
	start := time.Now()
	if err := eng.SaveSnapshot(s.opts.SnapshotPath); err != nil {
		writeJSONError(w, http.StatusInternalServerError, fmt.Sprintf("saving snapshot: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{
		Path:      s.opts.SnapshotPath,
		Epoch:     eng.Epoch(),
		ElapsedUS: time.Since(start).Microseconds(),
	})
}
