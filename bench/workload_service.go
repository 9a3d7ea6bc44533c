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
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"crisp"
	"crisp/internal/service"
)

// serviceWorkload reaches the simulator through crispd, in process: a
// closed loop of serviceClients clients submits small jobs and waits on each
// job's SSE timeline, resubmits them for cache hits, and runs one sweep
// twice. Every pass gets a fresh server on a fresh state directory, so
// the first submissions are always misses.
type serviceWorkload struct {
	specs   []service.JobSpec
	sweep   service.SweepSpec
	hitReps int
	clients int

	scratch string
	srv     *liveServer
	used    bool // the live server has served a pass and holds its results
}

type liveServer struct {
	s      *service.Server
	ts     *httptest.Server
	client *http.Client
	dir    string
}

// serviceSpecs is the job list: sixteen 128×72 pairs on scenes the sweep
// does not use (so the sweep never finds a job's result in the cache),
// two render-only frames, NN alone, two scenario presets, and three
// inline mixes whose arrival offsets carry the seed.
func serviceSpecs(seed uint64) ([]service.JobSpec, error) {
	var specs []service.JobSpec
	scenes := []string{"SPH", "PT", "MT", "IT"}
	computes := []string{"VIO", "HOLO", "ATW", "UPSCALE"}
	policies := []string{"EVEN", "MPS", "TAP", "Priority", "MiG", "WarpedSlicer"}
	for si, s := range scenes {
		for ci, c := range computes {
			specs = append(specs, service.JobSpec{Scene: s, Compute: c, Policy: policies[(si*len(computes)+ci)%len(policies)], Width: 128, Height: 72})
		}
	}
	specs = append(specs,
		service.JobSpec{Scene: "SPH", Policy: "serial", Width: 128, Height: 72},
		service.JobSpec{Scene: "PT", Policy: "serial", Width: 128, Height: 72},
		service.JobSpec{Compute: "NN", Policy: "serial"},
		service.JobSpec{Scenario: "n-way-fair", Policy: "MPS"},
		service.JobSpec{Scenario: "background-batch", Policy: "EVEN", Width: 128, Height: 72},
	)
	rnd := newRNG(seed, 2<<32)
	jitter := func(base int64) crisp.Arrival {
		return crisp.Arrival{Kind: crisp.ArriveOffset, Offset: base + int64(rnd.intn(arrivalJitter))}
	}
	mixes := []crisp.MixSpec{
		{Name: "bench-render-batch", Tenants: []crisp.MixTenant{{Scene: "MT", Priority: 1, Deadline: 400_000}, {Compute: "HOLO", Arrival: jitter(2_000)}}},
		{Name: "bench-two-compute", Tenants: []crisp.MixTenant{{Compute: "VIO", Deadline: 400_000}, {Compute: "ATW", Arrival: jitter(4_000)}}},
		{Name: "bench-three-way", Tenants: []crisp.MixTenant{{Scene: "PT", Priority: 1}, {Compute: "UPSCALE", Arrival: jitter(1_000)}, {Compute: "VIO", Arrival: jitter(6_000)}}},
	}
	for i, m := range mixes {
		raw, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		specs = append(specs, service.JobSpec{Mix: raw, Policy: []string{"Priority", "EVEN", "WarpedSlicer"}[i], Width: 128, Height: 72})
	}
	return specs, nil
}

func (w *serviceWorkload) setup(r *run) error {
	w.clients = serviceClients()
	specs, err := serviceSpecs(r.opt.seed)
	if err != nil {
		return err
	}
	w.specs, w.hitReps = specs, 20
	w.sweep = service.SweepSpec{
		Scenes:   []string{"SPL", "PL"},
		Computes: []string{"HOLO", "VIO", "ATW", "UPSCALE"},
		Policies: []string{"MPS", "MiG", "EVEN", "WarpedSlicer", "TAP", "Priority"},
		Width:    128, Height: 72,
	}
	if r.opt.smoke {
		w.specs = []service.JobSpec{specs[5], specs[20], specs[22]} // a pair, a preset, an inline mix
		w.hitReps = 2
		w.sweep.Scenes, w.sweep.Computes, w.sweep.Policies = []string{"SPL"}, []string{"HOLO"}, []string{"MPS", "EVEN"}
	}
	if err := os.MkdirAll(r.opt.outDir, 0o755); err != nil {
		return err
	}
	if w.scratch, err = os.MkdirTemp(r.opt.outDir, "scratch-service-"); err != nil {
		return err
	}
	return w.boot()
}

// boot starts a fresh server on a fresh state directory.
func (w *serviceWorkload) boot() error {
	dir, err := os.MkdirTemp(w.scratch, "state-")
	if err != nil {
		return err
	}
	s, err := service.New(service.Config{
		Workers: w.clients, FleetWorkers: w.clients, RunWorkers: 1, StateDir: dir,
	})
	if err != nil {
		return err
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	tp := &http.Transport{MaxIdleConnsPerHost: 2 * w.clients}
	w.srv = &liveServer{s: s, ts: ts, dir: dir, client: &http.Client{Transport: tp, Timeout: 2 * time.Minute}}
	w.used = false
	return nil
}

func (w *serviceWorkload) shutdown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	w.srv.s.Drain(ctx)
	cancel()
	w.srv.ts.Close()
	w.srv.client.CloseIdleConnections()
	os.RemoveAll(w.srv.dir)
	w.srv = nil
}

func (w *serviceWorkload) teardown() {
	w.shutdown()
	if w.scratch != "" {
		os.RemoveAll(w.scratch)
		w.scratch = ""
	}
}

// Wire views: the fields of crispd's JSON the benchmark reads.
type jobView struct {
	ID       string          `json:"id"`
	Digest   string          `json:"digest"`
	State    string          `json:"state"`
	Cached   bool            `json:"cached"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
	Result   json.RawMessage `json:"result"`
}

type storedResult struct {
	Cycles      int64   `json:"cycles"`
	StatsDigest string  `json:"stats_digest"`
	SimWallMS   float64 `json:"sim_wall_ms"`
	Tasks       []struct {
		WarpInsts int64 `json:"warp_insts"`
	} `json:"tasks"`
}

type sweepView struct {
	ID           string `json:"id"`
	State        string `json:"state"`
	Total        int    `json:"total"`
	Done         int    `json:"done"`
	MergedDigest string `json:"merged_digest"`
	Tasks        []struct {
		Digest string `json:"digest"`
		Cached bool   `json:"cached"`
	} `json:"tasks"`
}

// do sends one request and decodes a 2xx JSON body into out.
func (ls *liveServer) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, ls.ts.URL+path, rd)
	if err != nil {
		return err
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// awaitTerminal follows an SSE timeline until its terminal lifecycle
// event and returns that event's state.
func (ls *liveServer) awaitTerminal(path string) (string, error) {
	resp, err := ls.client.Get(ls.ts.URL + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20) // one sample event carries every stream's points
	lifecycle := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			lifecycle = line == "event: lifecycle"
		case lifecycle && strings.HasPrefix(line, "data: "):
			var ev struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return "", err
			}
			switch ev.State {
			case "done", "failed", "canceled", "quarantined":
				return ev.State, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("GET %s: stream ended before a terminal event", path)
}

// metric reads one counter from /metrics.
func (ls *liveServer) metric(name string) (float64, error) {
	resp, err := ls.client.Get(ls.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// serviceClients is the closed loop's client count, and the server's job
// and fleet worker counts with it: one per CPU, less the CPU that the load
// generator, the HTTP handlers, the SSE streams and the collector share,
// since they live in this process too. With a client on every CPU a run
// measured how the host scheduled them against its other tenants: the
// same commit spread 30% between runs on the checking host.
func serviceClients() int {
	return max(1, availableCPUs()-1)
}

// eachClient runs fn over 0..n-1 from w.clients goroutines, each taking
// the next index when its previous call returns: the closed loop.
func (w *serviceWorkload) eachClient(n int, fn func(i, lane int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range next {
				fn(i, lane)
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func (w *serviceWorkload) pass(r *run, pc *passCtx) (passResult, error) {
	res := newPassResult()
	if w.used {
		w.shutdown()
		if err := w.boot(); err != nil {
			return res, err
		}
	}
	w.used = true
	ls := w.srv
	order := pc.rng.perm(len(w.specs))

	// Phase 1: every job once, all cache misses, each client waiting on
	// the job's timeline for the terminal event.
	type missed struct {
		view             jobView
		stored           storedResult
		submit, toResult time.Duration
		gotTerminal      time.Time
		ok               bool
	}
	misses := make([]missed, len(w.specs))
	w.eachClient(len(order), func(i, lane int) {
		spec := w.specs[order[i]]
		m := &misses[order[i]]
		id := fmt.Sprintf("job%02d", order[i])
		job := pc.tr.begin("job", id, pc.root, lane)
		defer pc.tr.end(job)
		sent := time.Now()
		var err error
		m.submit = pc.tr.timed("service.submit", id, job, lane, func(int) { err = ls.do("POST", "/v1/jobs", spec, &m.view) })
		if !r.opErr(err, "POST /v1/jobs "+id) {
			return
		}
		r.op(!m.view.Cached, "%s: first submission answered from the cache", id)
		var state string
		pc.tr.timed("service.wait", id, job, lane, func(int) { state, err = ls.awaitTerminal("/v1/jobs/" + m.view.ID + "/timeline") })
		m.gotTerminal = time.Now()
		m.toResult = m.gotTerminal.Sub(sent)
		if !r.opErr(err, "timeline of "+id) || !r.op(state == "done", "%s ended %s", id, state) {
			return
		}
		m.ok = true
	})
	for i := range w.specs {
		res.order = append(res.order, fmt.Sprintf("job%02d", order[i]))
	}

	// Untimed: fetch each result for the work count and the hit check.
	var insts, cycles, digestLo float64
	distinct := make(map[string]bool)
	for i := range misses {
		m := &misses[i]
		if !m.ok {
			continue
		}
		err := ls.do("GET", "/v1/jobs/"+m.view.ID, nil, &m.view)
		if err == nil {
			err = json.Unmarshal(m.view.Result, &m.stored)
		}
		if !r.opErr(err, "GET /v1/jobs/"+m.view.ID) {
			m.ok = false
			continue
		}
		distinct[m.view.Digest] = true
		for _, t := range m.stored.Tasks {
			insts += float64(t.WarpInsts)
		}
		cycles += float64(m.stored.Cycles)
		d, _ := strconv.ParseUint(m.stored.StatsDigest, 16, 64)
		digestLo = foldDigest(digestLo, d)
		res.named.put("submit_to_result_ms_p50", ms(m.toResult))
		// One client's share of the closed loop: with every client busy
		// the phase lasts the sum of the latencies over the client count.
		res.primary[fmt.Sprintf("job%02d", i)] = m.toResult.Seconds() / float64(w.clients)
		res.layer.put("service.submit_ms_p50", ms(m.submit))
		res.layer.put("service.queue_wait_ms_p50", ms(m.view.Started.Sub(m.view.Created)))
		res.layer.put("service.run_ms_p50", ms(m.view.Finished.Sub(m.view.Started)))
		res.layer.put("service.commit_ms_p50", ms(m.gotTerminal.Sub(m.view.Finished)))
		res.layer.put("service.overhead_ms_p50", ms(m.toResult-m.view.Finished.Sub(m.view.Started)))
	}

	res.kinsts = insts / 1000
	res.layer.put("sim.cycles", cycles)
	res.layer.put("sim.warp_insts", insts)
	res.layer.put("sim.stats_digest", digestLo)
	execs, err := ls.metric("crispd_executions_total")
	if r.opErr(err, "/metrics") {
		r.op(int(execs) == len(distinct), "crispd executed %d simulations for %d distinct digests", int(execs), len(distinct))
	}
	if !pc.full {
		return res, nil
	}

	// Phase 2: the same jobs again, hitReps times over: cache hits.
	hitLat := make([]float64, len(w.specs)*w.hitReps)
	t0 := time.Now()
	w.eachClient(len(hitLat), func(i, lane int) {
		ji := order[i%len(order)]
		id := fmt.Sprintf("job%02d", ji)
		var view jobView
		var err error
		hitLat[i] = ms(pc.tr.timed("service.submit", id, pc.root, lane, func(int) { err = ls.do("POST", "/v1/jobs", w.specs[ji], &view) }))
		if !r.opErr(err, "resubmit "+id) {
			return
		}
		r.op(view.Cached, "%s: resubmission was not a cache hit", id)
		r.op(!misses[ji].ok || bytes.Equal(view.Result, misses[ji].view.Result), "%s: cache-hit body differs from the original result", id)
	})
	res.secondary["cache hits"] = time.Since(t0).Seconds()
	res.named.put("cache_hit_ms_p50", hitLat...)
	retries, err := ls.metric("crispd_retries_total")
	r.opErr(err, "/metrics")

	// Phases 3 and 4: one sweep, then the same sweep answered from the cache.
	runSweep := func(name string) (view sweepView, wall time.Duration, ok bool) {
		id := pc.tr.begin("job", name, pc.root, 0)
		defer pc.tr.end(id)
		sent := time.Now()
		var err error
		pc.tr.timed("service.submit", name, id, 0, func(int) { err = ls.do("POST", "/v1/sweeps", w.sweep, &view) })
		if !r.opErr(err, "POST /v1/sweeps "+name) {
			return view, 0, false
		}
		var state string
		pc.tr.timed("service.wait", name, id, 0, func(int) { state, err = ls.awaitTerminal("/v1/sweeps/" + view.ID + "/timeline") })
		wall = time.Since(sent)
		if !r.opErr(err, "timeline of "+name) || !r.op(state == "done", "%s ended %s", name, state) {
			return view, wall, false
		}
		return view, wall, r.opErr(ls.do("GET", "/v1/sweeps/"+view.ID, nil, &view), "GET sweep "+name)
	}
	first, sweepWall, ok1 := runSweep("sweep")
	second, cachedWall, ok2 := runSweep("sweep-cached")
	if ok1 && ok2 {
		r.op(first.MergedDigest != "" && first.MergedDigest == second.MergedDigest,
			"sweep merged_digest %q changed to %q on resubmission", first.MergedDigest, second.MergedDigest)
		for i, t := range second.Tasks {
			r.op(t.Cached, "resubmitted sweep task %d (%s) was simulated again", i, t.Digest)
		}
		var taskRunMS float64
		for _, t := range first.Tasks {
			var sr storedResult
			if r.opErr(ls.do("GET", "/v1/results/"+t.Digest, nil, &sr), "GET /v1/results/"+t.Digest) {
				taskRunMS += sr.SimWallMS
			}
		}
		res.layer.put("sweep_tasks_per_s", float64(first.Total)/sweepWall.Seconds())
		res.layer.put("service.sweep_cached_ms", ms(cachedWall))
		res.layer.put("service.sweep_dispatch_overhead_pct", (1-taskRunMS/(float64(w.clients)*ms(sweepWall)))*100)
	}

	res.secondary["sweep"], res.secondary["sweep cached"] = sweepWall.Seconds(), cachedWall.Seconds()
	l := res.layer
	l.put("service.executions", execs)
	l.put("service.retries", retries)
	l.put("service.submit_to_result_ms_p90", percentile(res.named["submit_to_result_ms_p50"], 90))
	l.put("service.cache_hit_ms_p95", percentile(hitLat, 95))
	return res, nil
}

func (w *serviceWorkload) verify(r *run) error { return nil }

func (w *serviceWorkload) layers(r *run, tr *tracer, root int) error { return nil }
