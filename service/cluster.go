package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/ftdse"
)

// Node mode: a standalone ftdsed becomes a cluster solver node the
// moment a coordinator registers with it (POST /cluster/register).
// Registration only adds an identity (the coordinator's name for this
// node, reported by /readyz and on result spans); every standalone
// endpoint keeps working. The node never opens a connection of its
// own: the coordinator pulls each running solve's incumbent from
// GET /jobs/{id}/checkpoint when its poll sees the improvement count
// advance, so the search survives this process dying.

// clusterState is the node-mode identity, set by registration and read
// by /readyz and the result spans.
type clusterState struct {
	mu   sync.Mutex
	node string
}

// clusterNode returns the registered node name ("" when standalone).
func (s *Service) clusterNode() string {
	s.cluster.mu.Lock()
	defer s.cluster.mu.Unlock()
	return s.cluster.node
}

// handleReady answers GET /readyz: 200 with Ready true when the node
// can accept new work right now (not draining, queue not full), 503
// with the same document otherwise. The body always carries the queue
// backlog and the registered node name, so the coordinator's health
// pass doubles as its load probe and its restart detector.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth := len(s.pending)
	draining := s.draining || s.closed
	s.mu.Unlock()
	st := ReadyStatus{
		Ready:          !draining && depth < s.cfg.QueueSize,
		Draining:       draining,
		QueueDepth:     depth,
		QueueCapacity:  s.cfg.QueueSize,
		SolvesInFlight: int(s.met.solvesInFlight.Value()),
		Node:           s.clusterNode(),
	}
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// handleRegister answers POST /cluster/register: the coordinator hands
// the node its cluster identity. A later registration replaces the
// previous one, so a restarted (or replaced) coordinator heals on its
// first health pass. The request's coordinator URL and cadence are for
// nodes of the previous release, which pushed checkpoints; this node
// ignores them.
func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Node == "" {
		writeError(w, errors.New("missing node name"))
		return
	}
	s.cluster.mu.Lock()
	s.cluster.node = req.Node
	s.cluster.mu.Unlock()
	writeJSON(w, http.StatusOK, RegisterResponse{Node: req.Node})
}

// handleCheckpoint answers GET /jobs/{id}/checkpoint with the job's
// latest incumbent as a checkpoint document, encoded on demand: 204
// before the first improvement, 404 once the job is terminal (its
// result supersedes any checkpoint). The encoding runs on the request
// goroutine, never on the solve's.
func (s *Service) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	prob, imp, live := j.incumbent()
	switch {
	case !live:
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "job " + j.id + " is terminal"})
		return
	case len(imp.Design) == 0:
		w.WriteHeader(http.StatusNoContent)
		return
	}
	ck, err := ftdse.NewCheckpoint(prob, j.fingerprint, imp)
	var doc bytes.Buffer
	if err == nil {
		err = ftdse.WriteCheckpoint(&doc, ck)
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc.Bytes())
}
