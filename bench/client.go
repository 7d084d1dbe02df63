package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	psi "github.com/psi-graph/psi"
	"github.com/psi-graph/psi/internal/graph"
	"github.com/psi-graph/psi/internal/server"
)

// site is one engine behind the serving layer on a loopback listener: what
// set-up builds and what the HTTP workloads talk to.
type site struct {
	eng *psi.Engine
	srv *server.Server
	ts  *httptest.Server
	hc  *http.Client
}

func newSite(ds []*psi.Graph, w workloadSpec) (*site, error) {
	eng, err := psi.NewDatasetEngine(ds, psi.EngineOptions{
		Indexes:      w.Indexes,
		Shards:       w.Shards,
		Mutable:      w.Mutable,
		CompactEvery: w.CompactEvery,
		Timeout:      engineBudget,
	})
	if err != nil {
		return nil, err
	}
	opts := server.Options{CacheSize: -1}
	if w.ServerCache {
		opts.CacheSize = 0 // the server's default, 256 entries
	}
	srv := server.New(eng, opts)
	ts := httptest.NewServer(srv)
	// One connection per client plus the writer: never more than nproc.
	tr := &http.Transport{MaxIdleConnsPerHost: w.Clients + 1}
	return &site{eng: eng, srv: srv, ts: ts, hc: &http.Client{Transport: tr}}, nil
}

func (s *site) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a cut straggler is not this benchmark's failure
	s.hc.CloseIdleConnections()
	s.ts.Close()
	s.eng.Close()
}

// reply is one streamed /query response as the client read it.
type reply struct {
	sample
	ids     []int
	summary server.StreamSummary
}

var graphIDPrefix = []byte(`{"graph_id":`)

// query posts one query and reads the NDJSON stream: first is the time to
// the first line, total the time to the last byte. ok needs HTTP 200 and a
// done, unkilled summary that agrees with the lines received.
func (s *site) query(body []byte, useCache bool) reply {
	url := s.ts.URL + "/query?stream=1"
	if !useCache {
		url += "&cache=0"
	}
	var a reply
	start := time.Now()
	resp, err := s.hc.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		a.total = time.Since(start)
		return a
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	sawSummary := false
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && a.first == 0 {
			a.first = time.Since(start)
		}
		if bytes.HasPrefix(line, graphIDPrefix) {
			end := bytes.IndexByte(line, '}')
			if id, perr := strconv.Atoi(string(line[len(graphIDPrefix):max(end, len(graphIDPrefix))])); perr == nil {
				a.ids = append(a.ids, id)
			}
		} else if len(bytes.TrimSpace(line)) > 0 {
			sawSummary = json.Unmarshal(line, &a.summary) == nil
		}
		if err != nil {
			break
		}
	}
	a.total = time.Since(start)
	a.cached = a.summary.Cached
	a.ok = resp.StatusCode == http.StatusOK && sawSummary && a.summary.Done &&
		!a.summary.Killed && a.summary.Found == len(a.ids)
	return a
}

// mutate sends one mutation and decodes the JSON response into out.
func (s *site) mutate(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// stats fetches /stats.
func (s *site) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := s.hc.Get(s.ts.URL + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// parseBody is the server's own parse step, called from outside.
func parseBody(body []byte) error {
	gs, err := graph.ReadDataset(bytes.NewReader(body))
	if err == nil && len(gs) != 1 {
		err = fmt.Errorf("parsed %d graphs from one query body", len(gs))
	}
	return err
}
