package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// TestGridScenarioAxis pins the sweep decomposition order with scenarios in
// play: pair points first in GPU-major order, then scenario × policy points
// per GPU, with empty scenario names skipped — the deterministic task-list
// contract crispd's merged digest depends on.
func TestGridScenarioAxis(t *testing.T) {
	g := Grid{
		GPUs:      []string{"JetsonOrin"},
		Computes:  []string{"VIO"},
		Policies:  []string{"EVEN", "MPS"},
		Scenarios: []string{"n-way-fair", ""},
	}
	pts := g.Points()
	want := []GridPoint{
		{GPU: "JetsonOrin", Compute: "VIO", Policy: "EVEN"},
		{GPU: "JetsonOrin", Compute: "VIO", Policy: "MPS"},
		{GPU: "JetsonOrin", Scenario: "n-way-fair", Policy: "EVEN"},
		{GPU: "JetsonOrin", Scenario: "n-way-fair", Policy: "MPS"},
	}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d: %+v", len(pts), len(want), pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("point %d = %+v, want %+v", i, pts[i], want[i])
		}
	}
	// A scenario-only grid expands too (no pair axes at all).
	only := Grid{Scenarios: []string{"vr-frame-deadline"}}
	if pts := only.Points(); len(pts) != 1 || pts[0].Scenario != "vr-frame-deadline" {
		t.Errorf("scenario-only grid: %+v", pts)
	}
}

// TestSweepInlineConfigGrid: a gpus axis mixing a built-in name and an
// inline config expands in Grid order, and the inline cell keys like a job
// carrying the same config — same digest, and a job resubmitted after the
// sweep is a cache hit with no second execution.
func TestSweepInlineConfigGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep round trip is not short")
	}
	cfg, err := os.ReadFile("../../examples/configs/orin-quarter.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, FleetWorkers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"gpus":["JetsonOrin",` + string(cfg) + `],"computes":["VIO"],"policies":["EVEN"],"width":128,"height":72}`
	res, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	var created sweepView
	json.NewDecoder(res.Body).Decode(&created)
	res.Body.Close()
	if res.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/sweeps -> %d", res.StatusCode)
	}
	v := waitSweep(t, s, created.ID, StateDone, 2*time.Minute)
	if len(v.Tasks) != 2 {
		t.Fatalf("got %d tasks, want 2", len(v.Tasks))
	}
	named, inline := v.Tasks[0], v.Tasks[1]
	if named.Spec.GPU != "JetsonOrin" || len(named.Spec.Config) != 0 {
		t.Errorf("task 0 spec %+v, want the named JetsonOrin cell", named.Spec)
	}
	if inline.Spec.GPU != "" || len(inline.Spec.Config) == 0 {
		t.Errorf("task 1 spec %+v, want the inline config cell", inline.Spec)
	}
	if named.Digest == inline.Digest {
		t.Errorf("named and inline cells share digest %s; the key must follow the config's content", named.Digest)
	}

	execs := s.Snapshot().Executions
	if execs != 2 {
		t.Fatalf("executions = %d after the sweep, want 2", execs)
	}
	resp, job := postJob(t, ts.URL, JobSpec{Config: cfg, Compute: "VIO", Policy: "EVEN", Width: 128, Height: 72})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs -> %d", resp.StatusCode)
	}
	if job.Digest != inline.Digest {
		t.Errorf("job digest %s != inline sweep cell digest %s", job.Digest, inline.Digest)
	}
	if !job.Cached {
		t.Errorf("job with the inline cell's config was not served from the cache")
	}
	if n := s.Snapshot().Executions; n != execs {
		t.Errorf("executions %d -> %d: the job ran again", execs, n)
	}
}
