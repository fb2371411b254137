package reportserver

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// fetchTrace polls /debug/traces/{id} until it appears (the store is
// populated after the response is flushed) and decodes the span tree.
func fetchTrace(t *testing.T, base, id string) obs.TraceDoc {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := get(t, base+"/debug/traces/"+id)
		if code == http.StatusOK {
			var doc obs.TraceDoc
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("trace %s not JSON: %v\n%s", id, err, body)
			}
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared in the store (last code %d)", id, code)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTraceColdMissRoundTrip is the tracing acceptance check: a cold
// report request returns an X-Instrep-Trace ID whose stored span tree
// covers the queue wait, the simulation, and the cache write, and a
// warm request's trace records the memory-tier hit with no simulation.
func TestTraceColdMissRoundTrip(t *testing.T) {
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{Run: fakeRun(&sims, 0)})

	resp, err := http.Get(ts.URL + "/v1/report/goban")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	coldID := resp.Header.Get("X-Instrep-Trace")
	if resp.StatusCode != http.StatusOK || coldID == "" {
		t.Fatalf("cold request: code=%d trace=%q", resp.StatusCode, coldID)
	}

	cold := fetchTrace(t, ts.URL, coldID)
	if cold.ID != coldID || cold.Outcome != "ok" {
		t.Fatalf("cold trace doc: id=%q outcome=%q", cold.ID, cold.Outcome)
	}
	root := cold.Spans
	if root.Name != "GET /v1/report/goban" {
		t.Errorf("root span name = %q", root.Name)
	}
	if got := root.Attrs["status"]; got != float64(http.StatusOK) {
		t.Errorf("root status attr = %v, want 200", got)
	}
	if got := root.Attrs["cache_tier"]; got != "miss" {
		t.Errorf("cold cache_tier = %v, want miss", got)
	}
	if _, ok := root.Attrs["queue_wait_ns"]; !ok {
		t.Error("cold trace missing queue_wait_ns root attr")
	}
	queue := root.Find("queue")
	if queue == nil || queue.Attrs["outcome"] != "admitted" {
		t.Fatalf("queue span missing or not admitted: %+v", queue)
	}
	sim := root.Find("sim")
	if sim == nil || sim.Attrs["workload"] != "goban" {
		t.Fatalf("sim span missing or unlabeled: %+v", sim)
	}
	if root.Find("cache.write") == nil {
		t.Fatal("cold trace missing cache.write span")
	}

	// Warm request: new trace, memory tier, no simulation spans.
	resp, err = http.Get(ts.URL + "/v1/report/goban")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	warmID := resp.Header.Get("X-Instrep-Trace")
	if warmID == "" || warmID == coldID {
		t.Fatalf("warm trace ID %q (cold %q): want a fresh ID per request", warmID, coldID)
	}
	warm := fetchTrace(t, ts.URL, warmID)
	if got := warm.Spans.Attrs["cache_tier"]; got != "memory" {
		t.Errorf("warm cache_tier = %v, want memory", got)
	}
	if warm.Spans.Find("sim") != nil {
		t.Error("warm trace has a sim span: cache hit must not simulate")
	}
	if sims.Load() != 1 {
		t.Fatalf("simulations = %d, want 1", sims.Load())
	}

	// The listing shows both traces; unknown IDs 404.
	code, body := get(t, ts.URL+"/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces: %d", code)
	}
	var list struct {
		Count  int                `json:"count"`
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, tr := range list.Traces {
		have[tr.ID] = true
	}
	if !have[coldID] || !have[warmID] {
		t.Errorf("trace list missing request traces: %v", have)
	}
	if code, _ := get(t, ts.URL+"/debug/traces/ffffffffffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown trace ID: %d, want 404", code)
	}
}

// TestTraceAlwaysKeepErrors pins the retention policy: error traces are
// flagged kept so they survive floods of healthy traffic.
func TestTraceAlwaysKeepErrors(t *testing.T) {
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{Run: fakeRun(&sims, 0)})

	resp, err := http.Get(ts.URL + "/v1/report/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Instrep-Trace")
	if resp.StatusCode != http.StatusNotFound || id == "" {
		t.Fatalf("404 request: code=%d trace=%q", resp.StatusCode, id)
	}
	doc := fetchTrace(t, ts.URL, id)
	if doc.Outcome != "error" {
		t.Errorf("404 trace outcome = %q, want error", doc.Outcome)
	}
	_, body := get(t, ts.URL+"/debug/traces")
	var list struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	for _, tr := range list.Traces {
		if tr.ID == id {
			if !tr.Kept {
				t.Error("error trace not in the always-keep class")
			}
			return
		}
	}
	t.Fatalf("error trace %s missing from the listing", id)
}

// TestMetricsPrometheusNegotiation pins the /metrics content
// negotiation and the text exposition itself: ?format=prometheus and a
// text/plain Accept header get version 0.0.4 text with instrep_-
// prefixed families, while the default stays JSON.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{Run: fakeRun(&sims, 0)})
	get(t, ts.URL+"/v1/report/goban")

	code, body := get(t, ts.URL+"/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("prom metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE instrep_server_requests_report counter",
		"instrep_server_requests_report 1",
		"# TYPE instrep_server_latency_report histogram",
		`instrep_server_latency_report_bucket{le="+Inf"} 1`,
		"instrep_server_latency_report_count 1",
		"# TYPE instrep_server_sims_inflight gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "{le=\"+Inf\"} 0\ninstrep_server_latency_report_sum") {
		t.Error("latency histogram lost its observation")
	}

	// Accept-header negotiation (a Prometheus scraper's default).
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Accept-negotiated Content-Type = %q, want the 0.0.4 text exposition", ct)
	}

	// The default remains the JSON document existing tooling reads.
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("json metrics: %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("default /metrics is not JSON: %v\n%s", err, body)
	}
}

// TestDebugRunsInFlight drives a real simulation slowed by an injected
// SlowStep fault and observes it through /debug/runs while it is still
// retiring instructions: benchmark, phase, and a monotonically
// advancing retire count. A fault plan also makes the config
// uncacheable, so the simulation genuinely runs.
func TestDebugRunsInFlight(t *testing.T) {
	cfg := repro.QuickConfig()
	cfg.SkipInstructions = 100
	cfg.MeasureInstructions = 1_000_000
	cfg.Faults = faultinject.NewPlan(faultinject.Fault{
		Kind:     faultinject.SlowStep,
		Workload: "lzw",
		At:       50,
		Delay:    500 * time.Microsecond,
	})
	_, ts := newTestServer(t, Config{RunConfig: cfg})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/report/lzw", nil)
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()

	var seen repro.RunInfo
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := get(t, ts.URL+"/debug/runs")
		if code != http.StatusOK {
			t.Fatalf("/debug/runs: %d", code)
		}
		var doc struct {
			Count int             `json:"count"`
			Runs  []repro.RunInfo `json:"runs"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("/debug/runs not JSON: %v\n%s", err, body)
		}
		if doc.Count >= 1 && doc.Runs[0].Retired > 0 {
			seen = doc.Runs[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("simulation never appeared in /debug/runs")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if seen.Benchmark != "lzw" {
		t.Errorf("in-flight run benchmark = %q, want lzw", seen.Benchmark)
	}
	if seen.Phase == "" {
		t.Error("in-flight run has no phase")
	}
	if seen.TraceID == "" {
		t.Error("in-flight run not linked to its request trace")
	}
	if seen.ElapsedNS <= 0 {
		t.Errorf("elapsed_ns = %d, want > 0", seen.ElapsedNS)
	}

	// Hang up; the run aborts through its context and leaves the
	// registry.
	cancel()
	<-done
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, body := get(t, ts.URL+"/debug/runs")
		var doc struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Count == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("aborted run never left /debug/runs")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAccessLogJSON pins satellite (b): with an access log configured,
// every request emits one structured JSON line carrying method, path,
// status, outcome, latency, and — for traced endpoints — the trace ID
// and cache tier.
func TestAccessLogJSON(t *testing.T) {
	var buf syncBuffer
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{
		Run:       fakeRun(&sims, 0),
		AccessLog: slog.New(slog.NewJSONHandler(&buf, nil)),
	})

	resp, err := http.Get(ts.URL + "/v1/report/goban")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Instrep-Trace")

	// The line is written after the response flushes; wait for it.
	var line string
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := buf.String(); strings.Contains(s, "/v1/report/goban") {
			line = s
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access log line emitted; buffer: %q", buf.String())
		}
		time.Sleep(2 * time.Millisecond)
	}

	var entry map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &entry); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, line)
	}
	checks := map[string]any{
		"method":     "GET",
		"path":       "/v1/report/goban",
		"status":     float64(http.StatusOK),
		"outcome":    "ok",
		"trace":      traceID,
		"cache_tier": "miss",
	}
	for k, want := range checks {
		if got := entry[k]; got != want {
			t.Errorf("access log %s = %v, want %v", k, got, want)
		}
	}
	if v, ok := entry["latency_ns"].(float64); !ok || v <= 0 {
		t.Errorf("access log latency_ns = %v, want > 0", entry["latency_ns"])
	}
}

// syncBuffer is a goroutine-safe strings.Builder for log capture.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// metricNamePattern is the repo-wide metric naming rule: snake_case,
// subsystem-prefixed.
var metricNamePattern = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// TestMetricNamesPinned is the metric-name lint (satellite e): every
// name the server registry can emit matches the snake_case rule and is
// on the pinned list below. Renaming a metric breaks dashboards and
// recording rules — extend the list deliberately, don't drift.
func TestMetricNamesPinned(t *testing.T) {
	pinned := map[string]bool{
		// counters
		"server_requests_healthz":           true,
		"server_requests_metrics":           true,
		"server_requests_workloads":         true,
		"server_requests_report":            true,
		"server_requests_tables":            true,
		"server_requests_traces":            true,
		"server_requests_trace":             true,
		"server_requests_runs":              true,
		"server_requests_client_disconnect": true,
		"server_errors":                     true,
		"server_shed":                       true,
		"server_stale_served":               true,
		// gauges
		"server_queue_depth":   true,
		"server_sims_inflight": true,
		// latency histograms
		"server_latency_healthz":    true,
		"server_latency_metrics":    true,
		"server_latency_workloads":  true,
		"server_latency_report":     true,
		"server_latency_tables":     true,
		"server_latency_traces":     true,
		"server_latency_trace":      true,
		"server_latency_runs":       true,
		"server_latency_shed":       true,
		"server_latency_disconnect": true,
		// job tier (instrep_job_* families)
		"job_canceled":              true,
		"job_deduped":               true,
		"job_done":                  true,
		"job_failed":                true,
		"job_interrupted":           true,
		"job_journal_append_errors": true,
		"job_journal_appends":       true,
		"job_journal_compactions":   true,
		"job_journal_replayed":      true,
		"job_journal_tmp_scrubbed":  true,
		"job_journal_torn_dropped":  true,
		"job_queued":                true,
		"job_recovered":             true,
		"job_resumed":               true,
		"job_retried":               true,
		"job_running":               true,
		"job_submitted":             true,
	}

	var sims atomic.Int64
	_, ts := newJobsServer(t, Config{Run: fakeRun(&sims, 0)}, JobsConfig{})
	// Touch every endpoint class so the lazily created metrics exist.
	for _, path := range []string{
		"/healthz",
		"/v1/workloads",
		"/v1/report/goban",
		"/v1/report/nope", // 404 → server_errors
		"/v1/tables/goban",
		"/debug/traces",
		"/debug/traces/ffffffffffffffff",
		"/debug/runs",
		"/metrics",
	} {
		get(t, ts.URL+path)
	}

	_, body := get(t, ts.URL+"/metrics")
	var doc struct {
		Requests []obs.NamedValue     `json:"requests"`
		Gauges   []obs.NamedValue     `json:"gauges"`
		Latency  []obs.NamedHistogram `json:"latency"`
		Cache    []obs.NamedValue     `json:"cache"`
		Health   []obs.NamedValue     `json:"health"`
		Jobs     []obs.NamedValue     `json:"jobs"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}

	lint := func(section, name string, pin bool) {
		t.Helper()
		if !metricNamePattern.MatchString(name) {
			t.Errorf("%s metric %q violates snake_case naming", section, name)
		}
		if pin && !pinned[name] {
			t.Errorf("%s metric %q is not on the pinned list — renames break scrape configs; extend the list deliberately", section, name)
		}
	}
	for _, v := range doc.Requests {
		lint("requests", v.Name, true)
	}
	for _, v := range doc.Gauges {
		lint("gauges", v.Name, true)
	}
	for _, h := range doc.Latency {
		lint("latency", h.Name, true)
	}
	if len(doc.Jobs) == 0 {
		t.Error("metrics document has no jobs section")
	}
	for _, v := range doc.Jobs {
		lint("jobs", "job_"+v.Name, true)
	}
	// Cache and health names feed the instrep_cache_ / instrep_health_
	// prom families: lint the shape, ownership lives in their packages.
	for _, v := range doc.Cache {
		lint("cache", v.Name, false)
	}
	for _, v := range doc.Health {
		lint("health", v.Name, false)
	}
}
