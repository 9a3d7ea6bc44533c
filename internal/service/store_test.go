package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestStaticSiteServesTheDaemonsStore: crispviz -serve reads the results
// directory crispd writes through the same store and routes, so both
// answer the by-digest result and series with the same bytes. A corrupt
// series is a 404 to crispviz and stays where it is; the daemon sets it
// aside.
func TestStaticSiteServesTheDaemonsStore(t *testing.T) {
	dir := t.TempDir()
	s, ts := streamServer(t, Config{Workers: 1, ProgressInterval: 256, StateDir: dir})
	defer s.Drain(context.Background())
	job, err := s.Submit(tinySpec("SPL", "VIO", "EVEN"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone(t, s, job)

	results := filepath.Join(dir, "results")
	static := httptest.NewServer(StaticSite(results))
	defer static.Close()
	for _, route := range []string{"/v1/results/", "/v1/series/"} {
		daemon, code := getBody(t, ts.URL+route+job.Digest)
		viewer, vcode := getBody(t, static.URL+route+job.Digest)
		if code != http.StatusOK || vcode != http.StatusOK {
			t.Fatalf("GET %s%s: daemon %d, crispviz %d", route, job.Digest, code, vcode)
		}
		if !bytes.Equal(daemon, viewer) {
			t.Errorf("GET %s%s differs:\ncrispd:   %s\ncrispviz: %s", route, job.Digest, daemon, viewer)
		}
	}

	seriesPath := filepath.Join(results, job.Digest+".series.json")
	if err := os.WriteFile(seriesPath, []byte(`[{"cycle":`), 0o644); err != nil {
		t.Fatal(err)
	}
	badResult := filepath.Join(results, "ffffffffffffffff.json")
	if err := os.WriteFile(badResult, []byte(`{"digest":"0000000000000000"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh site: the first one holds the good series in memory.
	fresh := httptest.NewServer(StaticSite(results))
	defer fresh.Close()
	if _, code := getBody(t, fresh.URL+"/v1/series/"+job.Digest); code != http.StatusNotFound {
		t.Errorf("crispviz on a corrupt series: status %d, want 404", code)
	}
	if _, err := os.Stat(seriesPath); err != nil {
		t.Errorf("crispviz moved the corrupt series: %v", err)
	}
	if _, err := os.Stat(seriesPath + quarantineSuffix); err == nil {
		t.Error("crispviz set the corrupt series aside")
	}
	if list, _ := getBody(t, fresh.URL+"/v1/jobs"); bytes.Contains(list, []byte("ffffffffffffffff")) {
		t.Errorf("crispviz lists a result filed under another digest: %s", list)
	}
	if _, err := os.Stat(badResult); err != nil {
		t.Errorf("crispviz moved the corrupt result: %v", err)
	}

	// A restarted daemon sets the corrupt result aside at boot, and reads
	// the series from disk as crispviz did.
	s2, err := New(Config{StateDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := os.Stat(badResult + quarantineSuffix); err != nil {
		t.Errorf("daemon did not set the corrupt result aside at boot: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if _, code := getBody(t, ts2.URL+"/v1/series/"+job.Digest); code != http.StatusNotFound {
		t.Errorf("restarted daemon on a corrupt series: status %d, want 404", code)
	}
	if _, err := os.Stat(seriesPath + quarantineSuffix); err != nil {
		t.Errorf("daemon did not set the corrupt series aside: %v", err)
	}
	if _, code := getBody(t, ts2.URL+"/v1/results/"+job.Digest); code != http.StatusOK {
		t.Errorf("restarted daemon lost the result beside the corrupt series: status %d", code)
	}
}

func getBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return b, res.StatusCode
}
