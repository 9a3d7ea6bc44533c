package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, url string, spec JobSpec) (*http.Response, jobView) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var v jobView
	json.NewDecoder(resp.Body).Decode(&v)
	return resp, v
}

func getJob(t *testing.T, url, id string) jobView {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /v1/jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return v
}

// TestHTTPLifecycle drives the full wire API: submit, poll to completion,
// resubmit for a cache hit, fetch by digest, list, metrics.
func TestHTTPLifecycle(t *testing.T) {
	s, err := New(Config{Workers: 1, ProgressInterval: 512})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, created := postJob(t, ts.URL, tinySpec("SPL", "", "serial"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status %d, want 201", resp.StatusCode)
	}
	if created.ID == "" || created.Digest == "" || created.State != StateQueued {
		t.Fatalf("unexpected creation view: %+v", created)
	}

	deadline := time.Now().Add(2 * time.Minute)
	var final jobView
	for {
		final = getJob(t, ts.URL, created.ID)
		if final.State == StateDone {
			break
		}
		if final.State == StateFailed || final.State == StateCanceled {
			t.Fatalf("job ended %s: %s", final.State, final.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", final.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.Result == nil || final.Result.Cycles <= 0 || final.Result.StatsDigest == "" {
		t.Fatalf("done job carries no result payload: %+v", final.Result)
	}

	// Identical resubmission: instant done, flagged cached.
	resp2, hit := postJob(t, ts.URL, tinySpec("SPL", "", "serial"))
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("resubmit status %d", resp2.StatusCode)
	}
	if hit.State != StateDone || !hit.Cached {
		t.Fatalf("resubmission state=%s cached=%v, want instant cache hit", hit.State, hit.Cached)
	}
	if hit.Digest != created.Digest {
		t.Fatalf("identical jobs got digests %s vs %s", hit.Digest, created.Digest)
	}

	// Content-addressed fetch.
	rresp, err := http.Get(ts.URL + "/v1/results/" + created.Digest)
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	var sr StoredResult
	json.NewDecoder(rresp.Body).Decode(&sr)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || sr.StatsDigest != final.Result.StatsDigest {
		t.Fatalf("result fetch: status %d digest %s, want 200 %s",
			rresp.StatusCode, sr.StatsDigest, final.Result.StatsDigest)
	}
	if miss, _ := http.Get(ts.URL + "/v1/results/ffffffffffffffff"); miss.StatusCode != http.StatusNotFound {
		t.Errorf("unknown digest status %d, want 404", miss.StatusCode)
	}

	// Listing includes both submissions.
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	var listing struct {
		Jobs []jobView `json:"jobs"`
	}
	json.NewDecoder(lresp.Body).Decode(&listing)
	lresp.Body.Close()
	if len(listing.Jobs) != 2 {
		t.Errorf("listing has %d jobs, want 2", len(listing.Jobs))
	}

	// Metrics expose the counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	metrics := buf.String()
	for _, want := range []string{
		"crispd_executions_total 1",
		"crispd_cache_hits_total 1",
		"crispd_jobs_total{state=\"done\"} 2",
		"crispd_draining 0",
		// One render, never looked up again: the resubmission was answered
		// a tier earlier, by the result cache.
		"crispd_frontend_misses_total 1",
		"crispd_frontend_hits_total 0",
		"crispd_frontend_evictions_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if _, rest, ok := strings.Cut(metrics, "\ncrispd_frontend_bytes "); !ok || rest[0] < '1' || rest[0] > '9' {
		t.Errorf("crispd_frontend_bytes should read the retained frame's size:\n%s", metrics)
	}
	// The executed job's last sample carries the dispatcher's counters — it
	// swept on events and skipped the iterations between them — and the
	// schedulers': stalled ones replayed their recorded stall.
	for _, gauge := range []string{"crispd_sim_dispatch_sweeps", "crispd_sim_dispatch_skipped", "crispd_sim_stall_replays"} {
		if _, rest, ok := strings.Cut(metrics, "\n"+gauge+" "); !ok || rest[0] < '1' || rest[0] > '9' {
			t.Errorf("%s should be positive after an executed job:\n%s", gauge, metrics)
		}
	}

	// Health.
	if h, _ := http.Get(ts.URL + "/healthz"); h.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d, want 200", h.StatusCode)
	}
}

// TestHTTPQueueFull asserts the wire contract of admission control: 429
// with a positive integer Retry-After header.
func TestHTTPQueueFull(t *testing.T) {
	s, err := New(Config{QueueDepth: 1, Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Workers intentionally not started: the queue cannot drain under us.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := postJob(t, ts.URL, tinySpec("SPL", "", "serial")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	resp, _ := postJob(t, ts.URL, tinySpec("SPL", "", "EVEN"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive integer of seconds", ra)
	}

	s.Start()
	defer s.Drain(context.Background())
}

// TestHTTPBadRequests maps malformed submissions to 400.
func TestHTTPBadRequests(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"not json":       "{",
		"unknown field":  `{"scen": "SPL"}`,
		"no workload":    `{}`,
		"unknown scene":  `{"scene": "nope"}`,
		"unknown policy": `{"scene": "SPL", "policy": "nope"}`,
		"bad config":     `{"scene": "SPL", "config": {"base": "NoSuchGPU"}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// A gpus element is a built-in name or an inline config; anything else,
	// an unknown name, or an invalid config refuses the whole sweep.
	broken, err := os.ReadFile("../../examples/configs/broken-zero-sms.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ gpus, want string }{
		"number element": {`42`, "gpus[0]"},
		"unknown name":   {`"NoSuchGPU"`, "grid point 0"},
		"broken config":  {`"JetsonOrin",` + string(broken), "grid point 1"},
	} {
		body := `{"gpus":[` + c.gpus + `],"computes":["VIO"]}`
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), c.want) {
			t.Errorf("sweep %s: %d %s, want 400 naming %q", name, resp.StatusCode, msg, c.want)
		}
	}

	if resp, _ := http.Get(ts.URL + "/v1/jobs/j999999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j999999", nil)
	if resp, _ := http.DefaultClient.Do(req); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPDrainRejects asserts a draining server refuses new work with 503
// and goes unready — while liveness stays 200: a draining daemon is alive,
// just not accepting traffic, and restarting it would lose the drain.
func TestHTTPDrainRejects(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if r, _ := http.Get(ts.URL + "/readyz"); r.StatusCode != http.StatusOK {
		t.Errorf("readyz before drain status %d, want 200", r.StatusCode)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, _ := postJob(t, ts.URL, tinySpec("SPL", "", "serial"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining status %d, want 503", resp.StatusCode)
	}
	if h, _ := http.Get(ts.URL + "/healthz"); h.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining status %d, want 200 (liveness is not readiness)", h.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/readyz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining status %d, want 503", r.StatusCode)
	}
}

// TestHTTPReadyzBeforeStart: a constructed-but-not-started server (startup
// recovery still pending) is alive but unready.
func TestHTTPReadyzBeforeStart(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if h, _ := http.Get(ts.URL + "/healthz"); h.StatusCode != http.StatusOK {
		t.Errorf("healthz before Start status %d, want 200", h.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/readyz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz before Start status %d, want 503", r.StatusCode)
	}
	s.Start()
	defer s.Drain(context.Background())
	if r, _ := http.Get(ts.URL + "/readyz"); r.StatusCode != http.StatusOK {
		t.Errorf("readyz after Start status %d, want 200", r.StatusCode)
	}
}
