package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/ftdse"
	"repro/ftdse/service"
)

// getReady fetches /readyz, returning the status and the HTTP code.
func getReady(t *testing.T, url string) (service.ReadyStatus, int) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var st service.ReadyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding readyz: %v", err)
	}
	return st, resp.StatusCode
}

// register registers a coordinator on the service.
func register(t *testing.T, url string, req service.RegisterRequest) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/cluster/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /cluster/register: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d", resp.StatusCode)
	}
}

func TestReadyzTracksQueueAndDrain(t *testing.T) {
	svc, srv := newService(t, service.Config{QueueSize: 1, PoolWorkers: 1})
	if st, code := getReady(t, srv.URL); code != http.StatusOK || !st.Ready {
		t.Fatalf("fresh service not ready: %+v (code %d)", st, code)
	}

	// Occupy the worker and fill the single queue slot: readiness must
	// flip to 503 while liveness stays 200.
	running := postSolve(t, srv.URL, submitBody(t, genProblem(12, 1), slowOpts), http.StatusAccepted)
	waitState(t, srv.URL, running.ID, 10*time.Second, func(st service.JobStatus) bool {
		return st.State == service.StateRunning
	})
	postSolve(t, srv.URL, submitBody(t, genProblem(12, 2), slowOpts), http.StatusAccepted)
	st, code := getReady(t, srv.URL)
	if code != http.StatusServiceUnavailable || st.Ready {
		t.Fatalf("full queue still ready: %+v (code %d)", st, code)
	}
	if st.QueueDepth != 1 || st.QueueCapacity != 1 {
		t.Fatalf("queue backlog = %d/%d, want 1/1", st.QueueDepth, st.QueueCapacity)
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz should stay 200 while merely busy: %v", err)
	} else {
		resp.Body.Close()
	}

	// Draining flips readiness regardless of queue room.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st, code := getReady(t, srv.URL); code != http.StatusServiceUnavailable || !st.Draining {
		t.Fatalf("draining service still ready: %+v (code %d)", st, code)
	}
}

func TestRegisterNamesTheNode(t *testing.T) {
	_, srv := newService(t, service.Config{})
	if st, _ := getReady(t, srv.URL); st.Node != "" {
		t.Fatalf("standalone readyz node = %q", st.Node)
	}
	register(t, srv.URL, service.RegisterRequest{Node: "n1", Coordinator: "http://127.0.0.1:1"})
	if st, _ := getReady(t, srv.URL); st.Node != "n1" {
		t.Fatalf("readyz node = %q after registration", st.Node)
	}
}

// getCheckpoint fetches GET /jobs/{id}/checkpoint, returning the HTTP
// code and the body.
func getCheckpoint(t *testing.T, url, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/checkpoint")
	if err != nil {
		t.Fatalf("GET checkpoint: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading checkpoint: %v", err)
	}
	return resp.StatusCode, body
}

// TestJobCheckpointEndpoint pins the document the cluster coordinator
// pulls: none for an unknown job or before the first improvement, the
// latest incumbent while the job runs, none once it is terminal.
func TestJobCheckpointEndpoint(t *testing.T) {
	_, srv := newService(t, service.Config{QueueSize: 4, PoolWorkers: 1})
	if code, _ := getCheckpoint(t, srv.URL, "nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job checkpoint = %d, want 404", code)
	}

	prob := genProblem(14, 3)
	running := postSolve(t, srv.URL, submitBody(t, prob, slowOpts), http.StatusAccepted)
	waitState(t, srv.URL, running.ID, 10*time.Second, func(st service.JobStatus) bool {
		return st.State == service.StateRunning && st.Improvements > 0
	})
	// The single worker is busy, so this job waits with no incumbent.
	queued := postSolve(t, srv.URL, submitBody(t, genProblem(14, 4), slowOpts), http.StatusAccepted)
	if code, body := getCheckpoint(t, srv.URL, queued.ID); code != http.StatusNoContent || len(body) != 0 {
		t.Fatalf("checkpoint before the first improvement = %d %q, want 204 and no document", code, body)
	}

	// The search keeps improving; retry until no improvement lands
	// between the two status reads around the fetch, so the document is
	// known to be the n-th incumbent.
	var (
		ck ftdse.Checkpoint
		n  int
	)
	deadline := time.Now().Add(10 * time.Second)
	for {
		before := getJob(t, srv.URL, running.ID).Improvements
		code, body := getCheckpoint(t, srv.URL, running.ID)
		if code != http.StatusOK {
			t.Fatalf("running job checkpoint = %d %s, want 200", code, body)
		}
		if n = getJob(t, srv.URL, running.ID).Improvements; n == before {
			var err error
			if ck, err = ftdse.ReadCheckpoint(bytes.NewReader(body)); err != nil {
				t.Fatalf("checkpoint does not parse: %v\n%s", err, body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the search never paused long enough to pin its incumbent")
		}
	}
	if ck.Fingerprint != running.Fingerprint {
		t.Fatalf("checkpoint fingerprint %q, want %q", ck.Fingerprint, running.Fingerprint)
	}
	if _, err := ftdse.CheckpointDesign(prob, ck); err != nil {
		t.Fatalf("checkpoint design does not resolve against the problem: %v", err)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+running.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	events, final := parseSSE(t, srv.URL, running.ID)
	if !service.TerminalState(final.State) || len(events) < n {
		t.Fatalf("after cancel: state %q with %d events, want terminal with >= %d", final.State, len(events), n)
	}
	latest := events[n-1]
	if ck.Phase != latest.Phase || ck.Iteration != latest.Iteration ||
		int64(ck.TardinessMs) != int64(latest.TardinessMs) || int64(ck.MakespanMs) != int64(latest.MakespanMs) {
		t.Fatalf("checkpoint (%s #%d: %v, %v) is not the latest improvement (%s #%d: %v, %v)",
			ck.Phase, ck.Iteration, ck.TardinessMs, ck.MakespanMs,
			latest.Phase, latest.Iteration, latest.TardinessMs, latest.MakespanMs)
	}
	if code, _ := getCheckpoint(t, srv.URL, running.ID); code != http.StatusNotFound {
		t.Fatalf("terminal job checkpoint = %d, want 404", code)
	}
}

func TestWarmStartSubmission(t *testing.T) {
	prob := genProblem(10, 4)

	// Build a checkpoint the way a coordinator would have stored one:
	// from a local solve's last incumbent.
	var last ftdse.Improvement
	res, err := ftdse.NewSolver(ftdse.WithProgress(func(imp ftdse.Improvement) {
		last = imp
	})).Solve(context.Background(), prob)
	if err != nil {
		t.Fatalf("local solve: %v", err)
	}
	ck, err := ftdse.NewCheckpoint(prob, "", last)
	if err != nil {
		t.Fatalf("NewCheckpoint: %v", err)
	}
	var ckDoc bytes.Buffer
	if err := ftdse.WriteCheckpoint(&ckDoc, ck); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	_, srv := newService(t, service.Config{QueueSize: 4, PoolWorkers: 1})
	var probDoc bytes.Buffer
	if err := ftdse.WriteProblem(&probDoc, prob); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	body, _ := json.Marshal(service.SubmitRequest{
		Problem:   probDoc.Bytes(),
		WarmStart: ckDoc.Bytes(),
	})
	st := postSolve(t, srv.URL, body, http.StatusOK, "wait")
	if st.State != service.StateDone {
		t.Fatalf("warm-started job ended %q (%s)", st.State, st.Error)
	}
	var jr service.JobResult
	if err := json.Unmarshal(st.Result, &jr); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	// The warm-start guarantee: never worse than the checkpointed
	// incumbent (here the converged design, so exactly equal).
	if jr.MakespanMs > res.Cost.Makespan.Milliseconds() || jr.TardinessMs > res.Cost.Tardiness.Milliseconds() {
		t.Fatalf("warm-started result (%v, %v) regressed past checkpoint (%v, %v)",
			jr.TardinessMs, jr.MakespanMs,
			res.Cost.Tardiness.Milliseconds(), res.Cost.Makespan.Milliseconds())
	}
	if n := metric(t, srv.URL, "ftdse_warm_starts_total"); n != 1 {
		t.Fatalf("warm_starts = %v, want 1", n)
	}

	// A malformed warm start is a client error...
	bad, _ := json.Marshal(service.SubmitRequest{
		Problem:   probDoc.Bytes(),
		WarmStart: json.RawMessage(`{"version":99}`),
	})
	resp, err := http.Post(srv.URL+"/solve", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed warm start = %d, want 400", resp.StatusCode)
	}

	// ...but a well-formed checkpoint that does not fit the problem is a
	// best-effort hint from a similar instance: the solve proceeds cold.
	other := genProblem(6, 99)
	var otherLast ftdse.Improvement
	if _, err := ftdse.NewSolver(ftdse.WithProgress(func(imp ftdse.Improvement) {
		otherLast = imp
	})).Solve(context.Background(), other); err != nil {
		t.Fatalf("other solve: %v", err)
	}
	otherCk, err := ftdse.NewCheckpoint(other, "", otherLast)
	if err != nil {
		t.Fatalf("other checkpoint: %v", err)
	}
	var otherDoc bytes.Buffer
	if err := ftdse.WriteCheckpoint(&otherDoc, otherCk); err != nil {
		t.Fatalf("other WriteCheckpoint: %v", err)
	}
	mismatched, _ := json.Marshal(service.SubmitRequest{
		Problem:   probDoc.Bytes(),
		WarmStart: otherDoc.Bytes(),
	})
	if st := postSolve(t, srv.URL, mismatched, http.StatusOK, "wait"); st.State != service.StateDone && !st.Cached {
		t.Fatalf("mismatched warm start broke the solve: %+v", st)
	}
}
