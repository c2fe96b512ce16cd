package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/ftdse/client"
	"repro/ftdse/obs"
	"repro/ftdse/service"
)

// countingHandler wraps a daemon's Handler: it counts and times every
// request by route and, while tracing, records one span per request
// under the job's trace ID. Requests and responses pass through
// untouched.
type countingHandler struct {
	next http.Handler
	name string
	tr   atomic.Pointer[tracer]

	mu    sync.Mutex
	byKey map[string][]float64 // route → durations (ms)
}

func newCountingHandler(name string, next http.Handler) *countingHandler {
	return &countingHandler{next: next, name: name, byKey: map[string][]float64{}}
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	route := routeOf(r)
	h.mu.Lock()
	h.byKey[route] = append(h.byKey[route], ms(end.Sub(start)))
	h.mu.Unlock()
	if tr := h.tr.Load(); tr != nil {
		if id := w.Header().Get(obs.TraceHeader); id != "" {
			tr.add(id, h.name+" "+route, "job", start, end)
		}
	}
}

// take returns the per-route durations recorded so far and starts over.
func (h *countingHandler) take() map[string][]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.byKey
	h.byKey = map[string][]float64{}
	return out
}

// routeOf names a request's route, telling waiting submissions apart.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/solve":
		if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
			return "POST /solve?wait"
		}
		return "POST /solve"
	case strings.HasPrefix(p, "/jobs/") && strings.HasSuffix(p, "/events"):
		return "GET /events"
	case strings.HasPrefix(p, "/jobs/"):
		return r.Method + " /jobs"
	}
	return r.Method + " " + p
}

// count returns how many requests the routes saw (all routes if none given).
func count(byKey map[string][]float64, routes ...string) float64 {
	n := 0
	for k, v := range byKey {
		if len(routes) == 0 {
			n += len(v)
		}
		for _, r := range routes {
			if k == r {
				n += len(v)
			}
		}
	}
	return float64(n)
}

// newClient returns a client holding at most nproc connections to the
// daemon at url.
func newClient(url string) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	return client.New(url, &http.Client{Transport: tr}), tr
}

// node is one in-process ftdsed daemon behind a loopback server.
type node struct {
	name string
	svc  *service.Service
	h    *countingHandler
	srv  *httptest.Server
	c    *client.Client
	tr   *http.Transport
}

// startNode starts a node with the production defaults.
func startNode(name string) *node {
	svc := service.New(service.Config{})
	h := newCountingHandler(name, svc.Handler())
	srv := httptest.NewServer(h)
	c, tr := newClient(srv.URL)
	return &node{name: name, svc: svc, h: h, srv: srv, c: c, tr: tr}
}

func (n *node) close() error {
	n.tr.CloseIdleConnections()
	n.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return n.svc.Close(ctx)
}
