package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crisp/internal/obs"
	"crisp/internal/robust/chaos"
	"crisp/internal/snapshot"
)

// newTestHTTP mounts an (optionally unstarted) server's handler on a real
// listener and returns the base URL.
func newTestHTTP(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// twoTaskSweep is the canonical test grid: 2 cells (SPL render-only and
// SPL+VIO concurrent), both EVEN-partitioned, at the fast test resolution.
func twoTaskSweep() SweepSpec {
	return SweepSpec{
		Scenes: []string{"SPL"}, Computes: []string{"", "VIO"}, Policies: []string{"EVEN"},
		Width: 128, Height: 72,
	}
}

// expectedMergedDigest computes the sweep's merged digest from direct
// facade runs of every grid cell — the single-node ground truth the fleet
// must converge to bit-identically, whatever the chaos schedule did.
func expectedMergedDigest(t *testing.T, spec SweepSpec) string {
	t.Helper()
	specs, err := spec.decompose()
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	h := snapshot.NewHasher()
	h.PutInt(len(specs))
	for _, js := range specs {
		r, err := js.resolve()
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		res := directRun(t, js)
		dd, err := res.StatsDigest()
		if err != nil {
			t.Fatalf("StatsDigest: %v", err)
		}
		h.PutStr(r.digest)
		h.PutStr(fmt.Sprintf("%016x", dd))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// waitSweep polls until the sweep reaches want (failing fast on any other
// terminal state) and returns its final view.
func waitSweep(t *testing.T, s *Server, id string, want State, timeout time.Duration) sweepView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		sw, ok := s.SweepByID(id)
		if !ok {
			t.Fatalf("sweep %s disappeared", id)
		}
		v := s.viewOfSweep(sw, true)
		if v.State == want {
			return v
		}
		switch v.State {
		case StateDone, StateFailed, StateCanceled:
			var errs []string
			for _, tv := range v.Tasks {
				if tv.Error != "" {
					errs = append(errs, tv.Error)
				}
			}
			t.Fatalf("sweep %s reached %s (want %s): %s", id, v.State, want, strings.Join(errs, "; "))
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in %s (want %s)", id, v.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepFleetMatchesSingleNode is the fleet acceptance baseline: a
// sweep sharded across 2 workers completes with a merged digest equal to
// direct single-node runs of every cell, and a resubmission of the same
// sweep is answered entirely from the federated cache.
func TestSweepFleetMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet round trip is not short")
	}
	spec := twoTaskSweep()
	want := expectedMergedDigest(t, spec)

	s, err := New(Config{Workers: 1, FleetWorkers: 2, ProgressInterval: 256})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())

	sw, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	v := waitSweep(t, s, sw.ID, StateDone, 2*time.Minute)
	if v.MergedDigest != want {
		t.Fatalf("fleet merged digest %s != single-node %s", v.MergedDigest, want)
	}
	for _, tv := range v.Tasks {
		if tv.State != taskDone {
			t.Fatalf("task %d state %s", tv.Index, tv.State)
		}
		dres := directRun(t, tv.Spec)
		dd, err := dres.StatsDigest()
		if err != nil {
			t.Fatalf("StatsDigest: %v", err)
		}
		if got, wantTask := tv.StatsDigest, fmt.Sprintf("%016x", dd); got != wantTask {
			t.Fatalf("task %d stats digest %s != direct %s", tv.Index, got, wantTask)
		}
	}

	// Federation: the same sweep again never executes — every dispatch is
	// answered from the shared content-addressed store.
	sw2, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	v2 := waitSweep(t, s, sw2.ID, StateDone, time.Minute)
	if v2.MergedDigest != want {
		t.Fatalf("cached merged digest %s != %s", v2.MergedDigest, want)
	}
	for _, tv := range v2.Tasks {
		if !tv.Cached {
			t.Fatalf("task %d of the resubmitted sweep executed instead of hitting the federated cache", tv.Index)
		}
	}
	if fs := s.coord.stats(); fs.FederatedHits < int64(len(v2.Tasks)) {
		t.Fatalf("FederatedHits = %d, want >= %d", fs.FederatedHits, len(v2.Tasks))
	}
}

// TestSweepChaosKillConverges kills each task's first attempt mid-run
// (in-process injected crash), forcing a revocation and a
// checkpoint-handoff retry — and the merged result must still be
// bit-identical to the clean single-node sweep.
func TestSweepChaosKillConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos convergence round trip is not short")
	}
	spec := twoTaskSweep()
	specs, err := spec.decompose()
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	killAt := int64(1<<62 - 1)
	for _, js := range specs {
		if c := directRun(t, js).Cycles / 2; c < killAt {
			killAt = c
		}
	}
	if killAt < 1024 {
		t.Skipf("runs too short to interrupt meaningfully (kill@%d)", killAt)
	}
	want := expectedMergedDigest(t, spec)

	s, err := New(Config{
		Workers: 1, FleetWorkers: 2,
		StateDir:         t.TempDir(),
		ProgressInterval: 256,
		CheckpointEvery:  512,
		RetryBase:        time.Millisecond,
		Chaos:            chaos.Spec{Seed: 7, KillCycle: killAt, Kills: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())

	sw, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	v := waitSweep(t, s, sw.ID, StateDone, 2*time.Minute)
	if v.MergedDigest != want {
		t.Fatalf("chaos sweep merged digest %s != clean single-node %s", v.MergedDigest, want)
	}
	if v.Revocations < 1 {
		t.Fatalf("Revocations = %d, want >= 1 (every first attempt was killed)", v.Revocations)
	}
	if v.Resumes < 1 {
		t.Fatalf("Resumes = %d, want >= 1 (kill@%d with checkpoints every 512)", v.Resumes, killAt)
	}
	if kills := s.Snapshot().ChaosKills; kills != int64(len(specs)) || kills != int64(v.Revocations) {
		t.Errorf("chaos kills = %d, want %d, one per cell, each revoking its attempt (revocations %d)", kills, len(specs), v.Revocations)
	}
	// A task's attempts count the attempts started: killed once, then
	// finished, is two.
	for _, tv := range v.Tasks {
		if tv.Attempts != 2 {
			t.Errorf("task %d: attempts = %d, want 2 (killed once, then finished)", tv.Index, tv.Attempts)
		}
	}
	// A cell that ends before its kill cycle is never killed: it reads no
	// kill and finishes on its first try.
	one := spec
	one.Computes = one.Computes[:1]
	oneSpecs, err := one.decompose()
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	late, err := New(Config{
		Workers:   1,
		RetryBase: time.Millisecond,
		Chaos:     chaos.Spec{Seed: 7, KillCycle: 2 * directRun(t, oneSpecs[0]).Cycles, Kills: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	late.Start()
	defer late.Drain(context.Background())
	csw, err := late.SubmitSweep(one)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	if cv := waitSweep(t, late, csw.ID, StateDone, time.Minute); len(cv.Tasks) != 1 || cv.Tasks[0].Attempts != 1 {
		t.Errorf("kill past the end: sweep tasks = %+v, want one task with attempts 1", cv.Tasks)
	}
	if kills := late.Snapshot().ChaosKills; kills != 0 {
		t.Errorf("kill past the end: chaos kills = %d, want 0", kills)
	}
}

// TestSweepIsolatedWorkerSIGKILL is the fleet-chaos acceptance test in
// process-isolation mode: each task's first child worker is SIGKILLed
// mid-simulation (no terminal event, classified as a crash), the attempt
// is revoked, and the retried worker resumes from the dead worker's
// shipped checkpoint — converging bit-identically to single-node.
func TestSweepIsolatedWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("isolated fleet chaos round trip is not short")
	}
	spec := twoTaskSweep()
	specs, err := spec.decompose()
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	killAt := int64(1<<62 - 1)
	for _, js := range specs {
		if c := directRun(t, js).Cycles / 2; c < killAt {
			killAt = c
		}
	}
	if killAt < 1024 {
		t.Skipf("runs too short to interrupt meaningfully (kill@%d)", killAt)
	}
	want := expectedMergedDigest(t, spec)

	s, err := New(Config{
		Workers: 1, FleetWorkers: 2,
		Isolate:          true,
		StateDir:         t.TempDir(),
		ProgressInterval: 256,
		CheckpointEvery:  512,
		RetryBase:        time.Millisecond,
		Chaos:            chaos.Spec{Seed: 11, KillCycle: killAt, Kills: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Drain(context.Background())

	sw, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	v := waitSweep(t, s, sw.ID, StateDone, 3*time.Minute)
	if v.MergedDigest != want {
		t.Fatalf("SIGKILL sweep merged digest %s != clean single-node %s", v.MergedDigest, want)
	}
	if v.Revocations < 1 {
		t.Fatalf("Revocations = %d, want >= 1", v.Revocations)
	}
	if v.Resumes < 1 {
		t.Fatalf("Resumes = %d, want >= 1", v.Resumes)
	}
	fs := s.coord.stats()
	if fs.LeaseRevocations < 1 {
		t.Fatalf("LeaseRevocations = %d, want >= 1", fs.LeaseRevocations)
	}
	// A child's kill is counted when it dies after a sample at the cycle.
	if kills := s.Snapshot().ChaosKills; kills != int64(v.Revocations) {
		t.Errorf("chaos kills = %d, want one per revoked attempt (%d)", kills, v.Revocations)
	}
}

// TestTaskQueuedTwiceRunsOnce pins the invariant that makes a second
// attempt of a running task impossible: a task leaves pending when its
// attempt starts, and runTask starts nothing for a task that is not
// pending. The task is pushed onto its queue twice before two pool
// workers start, so both pop it; exactly one attempt and one execution
// may follow — for a job's task and for a sweep's alike.
func TestTaskQueuedTwiceRunsOnce(t *testing.T) {
	for _, owner := range []string{"job", "sweep"} {
		t.Run(owner, func(t *testing.T) {
			s, err := New(Config{Workers: 2, FleetWorkers: 2, ProgressInterval: 512})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			spec := tinySpec("SPL", "", "serial")
			var task *sweepTask
			var wait func()
			if owner == "job" {
				job, err := s.Submit(spec)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				task = job.task
				wait = func() { waitState(t, s, job.ID, StateDone, time.Minute) }
			} else {
				sw, err := s.SubmitSweep(oneCellSweep(spec))
				if err != nil {
					t.Fatalf("SubmitSweep: %v", err)
				}
				task = sw.tasks[0]
				wait = func() { waitSweep(t, s, sw.ID, StateDone, time.Minute) }
			}
			task.queue.push(task)
			s.Start()
			defer s.Drain(context.Background())
			wait()

			st := s.Snapshot()
			if st.Attempts != 1 || st.Executions != 1 {
				t.Fatalf("attempts %d, executions %d; want 1 and 1 (the task was queued twice)", st.Attempts, st.Executions)
			}
			s.coord.mu.Lock()
			defer s.coord.mu.Unlock()
			if task.started != 1 || task.state != taskDone {
				t.Fatalf("task started %d attempts, state %s; want 1, done", task.started, task.state)
			}
		})
	}
}

// TestSweepTimelineCountsSubscribers: the /metrics timeline counters sum
// sweep hubs as well as job hubs, so an open sweep timeline is one live
// subscriber. The server is never started: the sweep stays running and
// its hub open.
func TestSweepTimelineCountsSubscribers(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := newTestHTTP(t, s)
	sw, err := s.SubmitSweep(twoTaskSweep())
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	res, err := http.Get(ts + "/v1/sweeps/" + sw.ID + "/timeline")
	if err != nil {
		t.Fatalf("sweep timeline: %v", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("sweep timeline -> %d, want 200", res.StatusCode)
	}
	mres, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mres.Body.Close()
	subs := -1
	sc := bufio.NewScanner(mres.Body)
	for sc.Scan() {
		fmt.Sscanf(sc.Text(), "crispd_timeline_subscribers %d", &subs)
	}
	if subs < 1 {
		t.Fatalf("crispd_timeline_subscribers = %d with a sweep timeline open, want >= 1", subs)
	}
}

// TestSweepAdmission pins the sweep tier's admission errors without
// running anything (the server is never started, so tasks stay queued).
func TestSweepAdmission(t *testing.T) {
	s, err := New(Config{Workers: 1, MaxSweeps: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// Zero runnable grid points: validation error.
	if _, err := s.SubmitSweep(SweepSpec{Policies: []string{"EVEN"}}); err == nil {
		t.Fatal("empty grid admitted")
	} else {
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Fatalf("empty grid error = %T, want *ValidationError", err)
		}
	}

	// Grid larger than MaxSweepTasks: validation error.
	big := SweepSpec{Scenes: []string{"SPL"}, Policies: make([]string, 0, DefaultMaxSweepTasks+1)}
	for i := 0; i <= DefaultMaxSweepTasks; i++ {
		big.Policies = append(big.Policies, "EVEN")
	}
	if _, err := s.SubmitSweep(big); err == nil {
		t.Fatal("oversized grid admitted")
	}

	// Admission bound: the second live sweep is refused with retry advice.
	if _, err := s.SubmitSweep(twoTaskSweep()); err != nil {
		t.Fatalf("first sweep refused: %v", err)
	}
	_, err = s.SubmitSweep(twoTaskSweep())
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("second sweep error = %v (%T), want *QueueFullError", err, err)
	}
	if qf.RetryAfter <= 0 {
		t.Fatalf("QueueFullError.RetryAfter = %v, want > 0", qf.RetryAfter)
	}
}

// TestSweepCancel: cancel releases the admission slot, marks the sweep
// canceled, and a second cancel reports already-terminal.
func TestSweepCancel(t *testing.T) {
	s, err := New(Config{Workers: 1, MaxSweeps: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sw, err := s.SubmitSweep(twoTaskSweep())
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	ok, err := s.CancelSweep(sw.ID)
	if err != nil || !ok {
		t.Fatalf("CancelSweep = %v, %v", ok, err)
	}
	v := s.viewOfSweep(sw, true)
	if v.State != StateCanceled {
		t.Fatalf("state after cancel = %s", v.State)
	}
	ok, err = s.CancelSweep(sw.ID)
	if err != nil || ok {
		t.Fatalf("second CancelSweep = %v, %v; want false, nil", ok, err)
	}
	if _, err := s.CancelSweep("s999999"); err == nil {
		t.Fatal("cancel of unknown sweep did not error")
	}
	// The slot freed by the cancel admits a new sweep.
	if _, err := s.SubmitSweep(twoTaskSweep()); err != nil {
		t.Fatalf("submit after cancel refused: %v", err)
	}
}

// TestSweepHTTP drives the sweep tier end to end over the wire: submit,
// poll, stream the merged timeline, verify the metrics the CI fleet-chaos
// job asserts on, and check the terminal-state DELETE conflict.
func TestSweepHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("HTTP fleet round trip is not short")
	}
	_, ts := streamServer(t, Config{Workers: 1, FleetWorkers: 2, ProgressInterval: 256})

	body := `{"scenes":["SPL"],"computes":["","VIO"],"policies":["EVEN"],"width":128,"height":72}`
	res, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	var created sweepView
	if err := json.NewDecoder(res.Body).Decode(&created); err != nil {
		t.Fatalf("decode created sweep: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusCreated || created.ID == "" || created.Total != 2 {
		t.Fatalf("POST -> %d %+v", res.StatusCode, created)
	}

	// Malformed grid: 400.
	res, err = http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(`{"policies":["EVEN"]}`))
	if err != nil {
		t.Fatalf("POST empty grid: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty grid -> %d, want 400", res.StatusCode)
	}

	var final sweepView
	deadline := time.Now().Add(2 * time.Minute)
	for {
		res, err := http.Get(ts.URL + "/v1/sweeps/" + created.ID)
		if err != nil {
			t.Fatalf("GET sweep: %v", err)
		}
		if err := json.NewDecoder(res.Body).Decode(&final); err != nil {
			t.Fatalf("decode sweep: %v", err)
		}
		res.Body.Close()
		if final.State == StateDone {
			break
		}
		if final.State == StateFailed || final.State == StateCanceled {
			t.Fatalf("sweep reached %s", final.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %s", final.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.MergedDigest == "" || final.Done != 2 {
		t.Fatalf("final sweep view %+v", final)
	}

	// Listing includes it, without the task table.
	res, err = http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatalf("GET /v1/sweeps: %v", err)
	}
	var list struct {
		Sweeps []sweepView `json:"sweeps"`
	}
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	res.Body.Close()
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != created.ID || len(list.Sweeps[0].Tasks) != 0 {
		t.Fatalf("listing %+v", list)
	}

	// The merged timeline replays over SSE and ends with the sweep's
	// terminal lifecycle event carrying the merged digest.
	res, err = http.Get(ts.URL + "/v1/sweeps/" + created.ID + "/timeline")
	if err != nil {
		t.Fatalf("GET sweep timeline: %v", err)
	}
	sawDone := false
	err = readSSE(bufio.NewReader(res.Body), func(ev sseEvent) bool {
		if ev.Event != obs.TimelineLifecycle {
			return true
		}
		var tev obs.TimelineEvent
		json.Unmarshal([]byte(ev.Data), &tev)
		if State(tev.State) == StateDone && strings.Contains(tev.Detail, final.MergedDigest) {
			sawDone = true
			return false
		}
		return true
	})
	res.Body.Close()
	if err != nil && !sawDone {
		t.Fatalf("sweep timeline: %v", err)
	}
	if !sawDone {
		t.Fatal("sweep timeline never delivered the terminal event with the merged digest")
	}

	// Fleet metrics are on /metrics (the CI fleet-chaos job greps these).
	res, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	buf := new(strings.Builder)
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		buf.WriteString(sc.Text())
		buf.WriteString("\n")
	}
	res.Body.Close()
	metrics := buf.String()
	for _, name := range []string{
		"crispd_lease_revocations_total", "crispd_fleet_resumes_total",
		"crispd_federated_cache_hits_total", "crispd_fleet_shards",
		"crispd_sweeps_active", "crispd_sweep_tasks_total",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if !strings.Contains(metrics, `crispd_sweep_tasks_total{state="done"} 2`) {
		t.Errorf("task-done counter wrong:\n%s", metrics)
	}

	// A finished sweep cannot be canceled: 409.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+created.ID, nil)
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE sweep: %v", err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE finished sweep -> %d, want 409", res.StatusCode)
	}
}

// TestTimelineSubscriberCap pins the SSE admission bound: with
// MaxTimelineSubs=1 the second concurrent subscriber to the same timeline
// is refused with 503 + Retry-After, and a slot freed by a disconnect
// readmits. The server is never started, so the job stays queued and its
// hub stays open for the whole test.
func TestTimelineSubscriberCap(t *testing.T) {
	s, err := New(Config{Workers: 1, MaxTimelineSubs: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := newTestHTTP(t, s)

	job, err := s.Submit(tinySpec("SPL", "VIO", "EVEN"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	url := ts + "/v1/jobs/" + job.ID + "/timeline"

	res1, err := http.Get(url)
	if err != nil {
		t.Fatalf("first subscriber: %v", err)
	}
	if res1.StatusCode != http.StatusOK {
		t.Fatalf("first subscriber -> %d, want 200", res1.StatusCode)
	}

	res2, err := http.Get(url)
	if err != nil {
		t.Fatalf("second subscriber: %v", err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second subscriber -> %d, want 503", res2.StatusCode)
	}
	if ra := res2.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}

	// Freeing the slot readmits — poll briefly: the server notices the
	// disconnect asynchronously.
	res1.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		res3, err := http.Get(url)
		if err != nil {
			t.Fatalf("third subscriber: %v", err)
		}
		code := res3.StatusCode
		res3.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: still %d", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSweepIDsContinueAcrossRestarts: a restarted daemon numbers its
// sweeps past every sweep directory the state dir holds, so a new sweep
// never reuses — and, when it succeeds, removes — an earlier daemon's
// postmortem directory.
func TestSweepIDsContinueAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	spec := oneCellSweep(tinySpec("SPL", "", "serial"))
	s1, err := New(Config{Workers: 1, FleetWorkers: 1, StateDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sw1, err := s1.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	postmortem := filepath.Join(dir, "sweeps", sw1.ID, "kept")
	if err := os.WriteFile(postmortem, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Workers: 1, FleetWorkers: 1, StateDir: dir})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	sw2, err := s2.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep after restart: %v", err)
	}
	if sw1.ID != "s000001" || sw2.ID != "s000002" {
		t.Errorf("sweep ids %s then %s across a restart, want s000001 then s000002", sw1.ID, sw2.ID)
	}
	s2.Start()
	waitSweep(t, s2, sw2.ID, StateDone, 2*time.Minute)
	s2.Drain(context.Background())
	if _, err := os.Stat(postmortem); err != nil {
		t.Errorf("the first daemon's sweep directory did not survive the second's sweep: %v", err)
	}
}
