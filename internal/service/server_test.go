package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, svc *Service, streamSlots int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(svc, streamSlots))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

// TestServerEndToEnd drives the full lifecycle over HTTP: submit,
// stream per-trial events, observe completion, download and verify the
// chain, and read the metrics.
func TestServerEndToEnd(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	defer svc.Stop()
	ts := newTestServer(t, svc, 2)

	spec := testSpec(10, 2) // grid 20
	spec.BlockTrials = 6
	resp := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var man Manifest
	decodeBody(t, resp, &man)
	if man.GridTotal != 20 || man.SpecHash == "" {
		t.Fatalf("manifest = %+v", man)
	}

	// Attach the stream while the job is still queued (workers start
	// below), so trial events are guaranteed to be observed.
	streamResp, err := http.Get(ts.URL + "/v1/jobs/" + man.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	svc.Start()

	trials, blocks := 0, 0
	var final Status
	sc := bufio.NewScanner(streamResp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "trial":
				trials++
			case "block":
				blocks++
			case "status":
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("status event: %v", err)
				}
			}
		}
		if final.Terminal() {
			break
		}
	}
	if final.State != StateCompleted {
		t.Fatalf("streamed final state %s (%s)", final.State, final.Error)
	}
	if trials == 0 || blocks == 0 {
		t.Fatalf("stream delivered %d trial and %d block events", trials, blocks)
	}

	// Status endpoint agrees.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + man.ID)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	var view struct {
		Manifest Manifest `json:"manifest"`
		Status   Status   `json:"status"`
	}
	decodeBody(t, resp, &view)
	if view.Status.State != StateCompleted || view.Status.Outcome == nil {
		t.Fatalf("job view = %+v", view.Status)
	}

	// The downloaded chain verifies offline against the manifest.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + man.ID + "/blocks")
	if err != nil {
		t.Fatalf("GET blocks: %v", err)
	}
	defer resp.Body.Close()
	var chain []Block
	bsc := bufio.NewScanner(resp.Body)
	bsc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for bsc.Scan() {
		if len(bytes.TrimSpace(bsc.Bytes())) == 0 {
			continue
		}
		var b Block
		if err := json.Unmarshal(bsc.Bytes(), &b); err != nil {
			t.Fatalf("chain line: %v", err)
		}
		chain = append(chain, b)
	}
	sum, err := VerifyChain(view.Manifest, chain)
	if err != nil {
		t.Fatalf("VerifyChain over downloaded chain: %v", err)
	}
	if !sum.Complete || sum.LastHash != view.Status.LastHash {
		t.Fatalf("downloaded chain summary %+v disagrees with status", sum)
	}

	// List and observability endpoints.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET jobs: %v", err)
	}
	var rows []struct {
		ID    string `json:"id"`
		State State  `json:"state"`
	}
	decodeBody(t, resp, &rows)
	if len(rows) != 1 || rows[0].ID != man.ID || rows[0].State != StateCompleted {
		t.Fatalf("list = %+v", rows)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"rangerd_jobs_completed_total 1",
		"rangerd_trials_total 20",
		"rangerd_queue_depth 0",
		"rangerd_trial_latency_seconds_count",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServerBackpressure(t *testing.T) {
	// Workers never start, so the bounded queue fills.
	svc := newTestService(t, t.TempDir(), func(c *Config) { c.QueueCap = 1 })
	defer svc.Stop()
	ts := newTestServer(t, svc, 2)

	resp := postJSON(t, ts.URL+"/v1/jobs", testSpec(2, 1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/jobs", testSpec(2, 1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	defer svc.Stop()
	ts := newTestServer(t, svc, 2)

	resp := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Model: "nosuch", Trials: 2})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown model = %d, want 400", resp.StatusCode)
	}
	for _, path := range []string{"/v1/jobs/jdeadbeef", "/v1/jobs/jdeadbeef/blocks", "/v1/jobs/jdeadbeef/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestEphemeralStreamDisconnectCancels is the goroutine-leak check: a
// client that disconnects mid-campaign must cancel the campaign's trial
// loop and release the stream slot, leaving no goroutines behind.
func TestEphemeralStreamDisconnectCancels(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	defer svc.Stop()
	srv := NewServer(svc, 1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	baseline := runtime.NumGoroutine()

	// A campaign far too large to finish during the test: the only way
	// the handler (and its campaign workers) can exit promptly is the
	// disconnect cancelling the trial loop.
	spec := testSpec(500000, 2)
	raw, _ := json.Marshal(spec)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatalf("POST stream: %v", err)
	}
	// Read one trial line so the campaign is demonstrably running, then
	// vanish.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		cancel()
		t.Fatalf("no first stream line: %v", sc.Err())
	}
	var line struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Type != "trial" {
		cancel()
		t.Fatalf("first line %q (err %v), want a trial", sc.Text(), err)
	}
	cancel()
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()

	// The handler goroutine, campaign goroutine, and worker pool must
	// all unwind. The handler frees its stream slot as it returns, so an
	// empty slot pool means the handler itself has exited.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 && len(srv.streamSlots) == 0 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after disconnect: baseline %d, now %d, stream slots held %d\n%s",
				baseline, runtime.NumGoroutine(), len(srv.streamSlots), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The stream slot was released: a small campaign now runs to its
	// outcome line on the same (single-slot) server.
	small := testSpec(3, 1)
	resp = postJSON(t, ts.URL+"/v1/stream", small)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up stream = %d, want 200", resp.StatusCode)
	}
	var sawOutcome bool
	osc := bufio.NewScanner(resp.Body)
	for osc.Scan() {
		var l struct {
			Type    string         `json:"type"`
			Outcome *OutcomeRecord `json:"outcome"`
		}
		if err := json.Unmarshal(osc.Bytes(), &l); err != nil {
			t.Fatalf("stream line %q: %v", osc.Text(), err)
		}
		if l.Type == "outcome" {
			if l.Outcome == nil || l.Outcome.Trials != 3 {
				t.Fatalf("outcome line = %+v", l.Outcome)
			}
			sawOutcome = true
		}
	}
	if !sawOutcome {
		t.Fatal("follow-up stream ended without an outcome")
	}
}

// TestJobStreamDisconnectDetachesOnly pins the durable-job contract: a
// streaming client that disconnects does NOT cancel the job; it
// completes and the subscriber is reaped.
func TestJobStreamDisconnectDetachesOnly(t *testing.T) {
	svc := newTestService(t, t.TempDir(), nil)
	defer svc.Stop()
	ts := newTestServer(t, svc, 2)

	spec := testSpec(200, 2)
	spec.BlockTrials = 16
	resp := postJSON(t, ts.URL+"/v1/jobs", spec)
	var man Manifest
	decodeBody(t, resp, &man)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+man.ID+"/stream", nil)
	streamResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	svc.Start()
	sc := bufio.NewScanner(streamResp.Body)
	sc.Scan() // any first line proves attachment
	cancel()
	streamResp.Body.Close()

	st := waitTerminal(t, svc, man.ID, 60*time.Second)
	if st.State != StateCompleted {
		t.Fatalf("job finished %s after stream disconnect (%s)", st.State, st.Error)
	}
	if st.Outcome == nil || st.Outcome.Trials != 400 {
		t.Fatalf("outcome = %+v", st.Outcome)
	}
}

var _ = fmt.Sprintf
