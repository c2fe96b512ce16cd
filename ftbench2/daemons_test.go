package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/ftdse/obs"
)

func TestCountingHandlerPassesResponsesThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set(obs.TraceHeader, "t1")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "event: improvement\ndata: {\"path\":%q}\n\n", r.URL.String())
		w.(http.Flusher).Flush()
		w.Write([]byte{0, 1, 2, 0xff})
	})
	h := newCountingHandler("node", inner)
	tr := newTracer()
	h.tr.Store(tr)
	for _, target := range []string{"/jobs/j1/events", "/solve?wait=1", "/jobs/j1"} {
		method := http.MethodGet
		if target == "/solve?wait=1" {
			method = http.MethodPost
		}
		direct, wrapped := httptest.NewRecorder(), httptest.NewRecorder()
		inner.ServeHTTP(direct, httptest.NewRequest(method, target, nil))
		h.ServeHTTP(wrapped, httptest.NewRequest(method, target, nil))
		if direct.Code != wrapped.Code || !reflect.DeepEqual(direct.Header(), wrapped.Header()) ||
			!bytes.Equal(direct.Body.Bytes(), wrapped.Body.Bytes()) || direct.Flushed != wrapped.Flushed {
			t.Fatalf("%s %s: wrapped response differs from the handler's own", method, target)
		}
	}
	got := h.take()
	for _, route := range []string{"GET /events", "POST /solve?wait", "GET /jobs"} {
		if len(got[route]) != 1 {
			t.Errorf("route %q counted %d times, want 1 (all: %v)", route, len(got[route]), got)
		}
	}
	if n := len(tr.spans); n != 3 || tr.spans[0].Op != "t1" || tr.spans[0].Parent != "job" {
		t.Errorf("spans = %+v, want one per request under the trace ID", tr.spans)
	}
	if len(h.take()) != 0 {
		t.Error("take did not start the counts over")
	}
}

func TestPlanKeepsItsMix(t *testing.T) {
	a := makePlan(5, serveBlock, serveWindow)
	if !reflect.DeepEqual(a, makePlan(5, serveBlock, serveWindow)) {
		t.Fatal("the same seed drew different plans")
	}
	if reflect.DeepEqual(a[:100], makePlan(6, serveBlock, serveWindow)[:100]) {
		t.Fatal("seeds 5 and 6 drew the same plan")
	}
	var n [nKinds]int
	for i, op := range a[:len(serveBlock)*50] {
		n[op.kind]++
		if op.kind == kindRepeat && (op.in >= i || a[op.in].kind == kindCancel || a[op.in].kind == kindRepeat) {
			t.Fatalf("op %d repeats input %d, which is not an earlier new input", i, op.in)
		}
	}
	if n[kindFresh] < 600 || n[kindRepeat] > 250 || n[kindStream] != 100 || n[kindCancel] != 50 {
		t.Fatalf("mix over 1000 operations = %v", n)
	}
	for _, in := range []int{0, 1, 2} {
		p1, o1 := serveInput(9, in, kindFresh)
		p2, o2 := serveInput(9, in, kindFresh)
		if !bytes.Equal(problemBytes(t, p1), problemBytes(t, p2)) || o1 != o2 {
			t.Fatalf("input %d differs between two draws of one seed", in)
		}
		p3, _ := clusterInput(9, in, kindFresh)
		p4, _ := clusterInput(10, in, kindFresh)
		if bytes.Equal(problemBytes(t, p3), problemBytes(t, p4)) {
			t.Fatalf("cluster input %d is the same for seeds 9 and 10", in)
		}
	}
}
