package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"crisp/internal/obs"
)

// The timeline SSE wire format (documented in docs/SERVICE.md):
//
//	id: <seq>
//	event: sample | lifecycle
//	data: <TimelineEvent JSON>
//
// ids are the hub's dense 1-based sequence numbers, so a reconnecting
// client sends Last-Event-ID and resumes gap-free from the ring. A resume
// cursor older than the retained window gets one "gap" control event
// first (refetch /series for the full history); a consumer too slow for
// the broadcast is dropped mid-stream with a "lagged" control event and
// reconnects the same way.

// handleTimeline streams a job's telemetry as Server-Sent Events: the
// retained backlog first (from Last-Event-ID when given), then live until
// the job reaches a terminal state or the client goes away.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	s.streamHub(w, r, job.hub)
}

// handleSweepTimeline streams a sweep's merged progress — per-task
// lifecycle markers and the shards' interleaved interval samples — in the
// same SSE framing as a job timeline.
func (s *Server) handleSweepTimeline(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.SweepByID(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown sweep "+r.PathValue("id"))
		return
	}
	s.streamHub(w, r, sw.hub)
}

// streamHub is the shared SSE loop behind the job and sweep timeline
// endpoints: retained backlog first (from Last-Event-ID when given), then
// live until the hub closes or the client goes away. Concurrent streams
// per hub are bounded by Config.MaxTimelineSubs — one slow proxied
// consumer is survivable, ten thousand are a memory bill — so past the
// cap new subscribers get 503 + Retry-After instead of a subscription.
func (s *Server) streamHub(w http.ResponseWriter, r *http.Request, hub *obs.Hub) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}

	from := uint64(1)
	cursor := r.Header.Get("Last-Event-ID")
	if cursor == "" {
		cursor = r.URL.Query().Get("last_event_id")
	}
	if cursor != "" {
		n, err := strconv.ParseUint(cursor, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "malformed Last-Event-ID "+cursor)
			return
		}
		from = n + 1
	}

	// Registration and backlog copy are atomic in the hub, so the
	// concatenation written below has no gap and no duplicate around the
	// catch-up/live boundary.
	backlog, sub, gapped, admitted := hub.SubscribeLimited(from, 256, s.cfg.MaxTimelineSubs)
	if !admitted {
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "timeline subscriber limit reached; retry later or fetch the series endpoint")
		return
	}
	defer sub.Cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no") // disable proxy buffering
	w.WriteHeader(http.StatusOK)

	if gapped {
		oldest := hub.Stats().OldestSeq
		fmt.Fprintf(w, "event: gap\ndata: {\"requested\":%d,\"oldest_retained\":%d,\"hint\":\"history evicted; fetch the series endpoint for the full view\"}\n\n", from, oldest)
	}
	for _, ev := range backlog {
		writeSSE(w, ev)
	}
	flusher.Flush()

	ctx := r.Context()
	for {
		select {
		case ev, live := <-sub.C:
			if !live {
				// Hub closed: either the run finished (the terminal
				// lifecycle event was already written) or this consumer
				// lagged and was dropped.
				if sub.Lagged() {
					fmt.Fprintf(w, "event: lagged\ndata: {\"hint\":\"consumer too slow, dropped; reconnect with Last-Event-ID to resume\"}\n\n")
				}
				flusher.Flush()
				return
			}
			writeSSE(w, ev)
			flusher.Flush()
		case <-ctx.Done():
			return
		}
	}
}

// writeSSE writes one event in SSE framing.
func writeSSE(w http.ResponseWriter, ev obs.TimelineEvent) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
}

// seriesView is the JSON shape of the buffered-series endpoints.
type seriesView struct {
	ID     string `json:"id,omitempty"`
	Digest string `json:"digest"`
	State  State  `json:"state,omitempty"`
	// Interval is the sampling cadence in cycles.
	Interval int64 `json:"interval,omitempty"`
	// Events is the timeline's newest sequence number (its SSE
	// high-water mark); resume a stream from here with Last-Event-ID.
	Events uint64 `json:"events,omitempty"`
	// From/To echo the requested cycle window (0 = unbounded).
	From int64 `json:"from,omitempty"`
	To   int64 `json:"to,omitempty"`
	// Samples is the windowed interval series; SeriesDigest is
	// obs.SamplesDigest over exactly these samples (hex), so a streamed
	// timeline can be checked bit-for-bit against this buffered view.
	Samples      []obs.Sample `json:"samples"`
	SeriesDigest string       `json:"series_digest"`
	// StatsDigest is the completed run's result digest, when cached.
	StatsDigest string `json:"stats_digest,omitempty"`
	// Lifecycle lists the retained lifecycle events in the window.
	Lifecycle []obs.TimelineEvent `json:"lifecycle,omitempty"`
}

// handleJobSeries serves a job's buffered interval series as JSON,
// windowed by ?from=&to= (inclusive cycle bounds; 0/absent = unbounded).
func (s *Server) handleJobSeries(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	from, to, ok := cycleWindow(w, r)
	if !ok {
		return
	}

	job.mu.Lock()
	state := job.state
	job.mu.Unlock()

	v := seriesView{
		ID:       job.ID,
		Digest:   job.Digest,
		State:    state,
		Interval: s.cfg.ProgressInterval,
		Events:   job.hub.Stats().Published,
		From:     from,
		To:       to,
		Samples:  []obs.Sample{},
	}
	for _, ev := range job.hub.Events(from, to) {
		switch ev.Kind {
		case obs.TimelineSample:
			v.Samples = append(v.Samples, *ev.Sample)
		case obs.TimelineLifecycle, obs.TimelineAttempt:
			v.Lifecycle = append(v.Lifecycle, ev)
		}
	}
	if len(v.Samples) == 0 && (state == StateDone) {
		// A cache-hit or restarted-daemon job has an empty hub; its
		// series lives under the digest.
		if samples, ok := s.store.series(job.Digest); ok {
			v.Samples = windowSamples(samples, from, to)
		}
	}
	v.SeriesDigest = fmt.Sprintf("%016x", obs.SamplesDigest(v.Samples))
	if sr, ok := s.store.get(job.Digest); ok {
		v.StatsDigest = sr.StatsDigest
	}
	writeJSON(w, http.StatusOK, v)
}

// cycleWindow reads the ?from=&to= cycle bounds, answering 400 itself
// when either is malformed.
func cycleWindow(w http.ResponseWriter, r *http.Request) (from, to int64, ok bool) {
	from, err := cycleParam(r, "from")
	if err == nil {
		to, err = cycleParam(r, "to")
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
	}
	return from, to, err == nil
}

func cycleParam(r *http.Request, name string) (int64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("malformed %s=%q: want a non-negative cycle number", name, raw)
	}
	return n, nil
}

func windowSamples(samples []obs.Sample, from, to int64) []obs.Sample {
	out := make([]obs.Sample, 0, len(samples))
	for _, smp := range samples {
		if smp.Cycle < from || (to > 0 && smp.Cycle > to) {
			continue
		}
		out = append(out, smp)
	}
	return out
}

// ---- static site (crispviz serve) -----------------------------------

// StaticSite serves the embedded exploration UI over a local results
// directory (a crispd state dir's results/, or any directory of
// <digest>.json + <digest>.series.json files) with no daemon running:
// crispviz's serve mode. It only reads the directory, through the same
// store and by-digest routes as crispd. Completed results appear as done
// jobs keyed by their digest; timelines replay from the persisted series.
func StaticSite(dir string) http.Handler {
	ss := staticSite{readResultStore(dir)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs", ss.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", ss.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/timeline", ss.handleTimeline)
	mux.HandleFunc("GET /v1/jobs/{id}/series", ss.handleSeries)
	ss.mount(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "mode": "static"})
	})
	mountUI(mux)
	return mux
}

// staticSite is the job-shaped view of a read-only store: in static mode
// a job id is its digest.
type staticSite struct{ *resultStore }

func (ss staticSite) handleList(w http.ResponseWriter, r *http.Request) {
	results, err := ss.list()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "results dir: "+err.Error())
		return
	}
	views := []jobView{}
	for _, sr := range results {
		views = append(views, jobView{ID: sr.Digest, Digest: sr.Digest, State: StateDone, Cached: true})
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views, "mode": "static"})
}

func (ss staticSite) handleJob(w http.ResponseWriter, r *http.Request) {
	sr, ok := ss.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no result "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jobView{ID: sr.Digest, Digest: sr.Digest, State: StateDone, Cached: true, Result: sr})
}

func (ss staticSite) handleSeries(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if v, ok := ss.seriesView(w, r, id); ok {
		v.ID, v.State = id, StateDone
		writeJSON(w, http.StatusOK, v)
	}
}

// handleTimeline replays a persisted series in the live SSE framing, then
// ends the stream — so the UI's streaming path works identically against
// a static results directory.
func (ss staticSite) handleTimeline(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("id")
	samples, ok := ss.series(digest)
	if !ok {
		httpError(w, http.StatusNotFound, "no stored series for "+digest)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	seq := uint64(1)
	for i := range samples {
		writeSSE(w, obs.TimelineEvent{Seq: seq, Cycle: samples[i].Cycle, Kind: obs.TimelineSample, Sample: &samples[i]})
		seq++
	}
	done := fmt.Sprintf("samples=%d series_digest=%016x", len(samples), obs.SamplesDigest(samples))
	var last int64
	if len(samples) > 0 {
		last = samples[len(samples)-1].Cycle
	}
	writeSSE(w, obs.TimelineEvent{Seq: seq, Cycle: last, Kind: obs.TimelineLifecycle, State: string(StateDone), Detail: done})
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}
