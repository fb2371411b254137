package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/reportserver"
	"repro/internal/resultcache"
)

// clients is the closed loop's client count: one per core of the
// 2-core host, so load generation never outnumbers the CPUs.
const clients = 2

// The warm stream's request mix, in percent of requests. The
// repository holds no recorded request traffic, so the mix is an
// assumption, as is the uniform choice of program and experiment;
// every serve-mixed figure depends on it (see README.md).
const (
	reportPct    = 70 // GET /v1/report/{p}
	allTablesPct = 5  // GET /v1/tables/all?experiment=table1 (fans out over RunAll)
	// the remainder: GET /v1/tables/{p}?experiment={e}
)

// streamLen is the length of the seeded warm request sequence; the
// clients cycle through it.
const streamLen = 4096

// prepareServeMixed builds the reference reports and the expected body
// of every path the warm stream can request.
func prepareServeMixed(e *env) error {
	names := repro.Workloads()
	if err := e.buildReports(names); err != nil {
		return err
	}
	reps := make([]*repro.Report, len(names))
	for i, name := range names {
		r, err := decodeReport(e.refs.report(name))
		if err != nil {
			return err
		}
		reps[i] = r
		e.refs.other["/v1/report/"+name] = e.refs.report(name)
		for _, x := range repro.Experiments() {
			out, err := repro.Format(x, []*repro.Report{r})
			if err != nil {
				return err
			}
			e.refs.other[tablesPath(name, x)] = []byte(out + "\n")
		}
	}
	out, err := repro.Format("table1", reps)
	if err != nil {
		return err
	}
	e.refs.other[tablesPath("all", "table1")] = []byte(out + "\n")
	return nil
}

func tablesPath(workload, experiment string) string {
	return "/v1/tables/" + workload + "?experiment=" + experiment
}

// stream derives the seeded request sequences: the cold order of the
// eight first requests, then the warm stream.
func stream(seed int64) (cold, warm []string) {
	rng := rand.New(rand.NewSource(seed))
	names := repro.Workloads()
	for _, i := range rng.Perm(len(names)) {
		cold = append(cold, "/v1/report/"+names[i])
	}
	experiments := repro.Experiments()
	for i := 0; i < streamLen; i++ {
		p := rng.Intn(100)
		switch {
		case p < reportPct:
			warm = append(warm, "/v1/report/"+names[rng.Intn(len(names))])
		case p < reportPct+allTablesPct:
			warm = append(warm, tablesPath("all", "table1"))
		default:
			warm = append(warm, tablesPath(names[rng.Intn(len(names))], experiments[rng.Intn(len(experiments))]))
		}
	}
	return cold, warm
}

// server is one running report server on loopback.
type server struct {
	srv    *reportserver.Server
	cache  *resultcache.Cache
	base   string
	stop   context.CancelFunc
	done   chan error
	client *http.Client
}

// startServer builds a server over cache (nil = a fresh memory cache)
// and serves it on a loopback port until close. wrap, when set, serves
// a wrapped route table instead of the server's own Serve loop; run,
// when set, replaces the server's simulation function.
func startServer(cfg repro.Config, cache *resultcache.Cache, wrap func(http.Handler) http.Handler, run func(context.Context, string, repro.Config) (*repro.Report, error)) (*server, error) {
	if cache == nil {
		var err error
		if cache, err = resultcache.New(0, ""); err != nil {
			return nil, err
		}
	}
	srv := reportserver.New(reportserver.Config{RunConfig: cfg, Cache: cache, Run: run})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &server{
		srv: srv, cache: cache, base: "http://" + l.Addr().String(), stop: stop,
		done: make(chan error, 1),
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		},
	}
	if wrap == nil {
		go func() { s.done <- srv.Serve(ctx, l) }()
	} else {
		hs := &http.Server{Handler: wrap(srv.Handler()), ReadHeaderTimeout: 5 * time.Second}
		srv.MarkReady()
		go func() {
			go func() {
				<-ctx.Done()
				hs.Close()
			}()
			s.done <- hs.Serve(l)
		}()
	}
	for i := 0; ; i++ {
		body, status, err := s.get("/healthz", nil)
		if err == nil && status == http.StatusOK && bytes.Contains(body, []byte(`"ready"`)) {
			return s, nil
		}
		if i == 500 {
			s.close()
			return nil, fmt.Errorf("server not ready: status %d, %v", status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// get fetches one path, reading the whole body.
func (s *server) get(path string, header http.Header) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (s *server) close() {
	s.stop()
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("# server stopped: %v\n", err)
	}
	s.client.CloseIdleConnections()
}

type serveMixed struct {
	e    *env
	s    *server
	cold []string
	warm []string
}

func setUpServeMixed(e *env) (instance, error) {
	if err := compileAll(repro.Workloads(), e.variant); err != nil {
		return nil, err
	}
	s, err := startServer(quickConfig(e.variant), nil, nil, e.checkedRun(nil))
	if err != nil {
		return nil, err
	}
	cold, warm := stream(e.opts.seed)
	return &serveMixed{e: e, s: s, cold: cold, warm: warm}, nil
}

// checkedRun is the server's simulation function: repro.RunWorkload,
// traced under tr (nil = untraced), with every report's counts checked
// against the pinned invariants.
func (e *env) checkedRun(tr *tracer) func(context.Context, string, repro.Config) (*repro.Report, error) {
	return func(ctx context.Context, name string, cfg repro.Config) (*repro.Report, error) {
		rep, err := runWorkload(ctx, tr.start("repro.RunWorkload", 0), name, cfg)
		if err == nil {
			key := invKey("quick", name, e.variant)
			e.checks.check(key+" counts", compareCounts(countsOf(rep), e.inv[key], true))
		}
		return rep, err
	}
}

// coldRounds is how many fresh servers take the eight cold requests;
// sim_p50_ms and retire_mips are medians over these rounds.
const coldRounds = 3

// warmSlice is the length of one warm round.
const warmSlice = 500 * time.Millisecond

// spanHeader carries the client span's ID to the traced handler so
// the server-side spans join the request's trace.
const spanHeader = "X-Perfbench-Span"

// measure sends the eight cold requests to each of coldRounds fresh
// servers, then the warm stream to the last one from a closed loop of
// two clients until the deadline.
func (m *serveMixed) measure(deadline time.Time, rec *recorder, tr *tracer) error {
	newServer := func() (*server, error) {
		if tr == nil {
			return startServer(quickConfig(m.e.variant), nil, nil, m.e.checkedRun(nil))
		}
		// Tracing serves the same route table through a wrapper that
		// records the handler span, and simulates through one that
		// records the run's phases.
		return startServer(quickConfig(m.e.variant), nil, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
				sp := tr.start("reportserver.ServeHTTP", parent)
				h.ServeHTTP(w, r)
				sp.end()
			})
		}, m.e.checkedRun(tr))
	}
	var s *server
	var hits, misses uint64
	defer func() {
		if s != nil && s != m.s {
			s.close()
		}
	}()
	do := func(path string) (time.Time, time.Duration, error) {
		sp := tr.start("client GET", 0)
		var h http.Header
		if sp != nil {
			h = http.Header{spanHeader: {strconv.Itoa(sp.id)}}
		}
		start := time.Now()
		body, status, err := s.get(path, h)
		d := time.Since(start)
		sp.end()
		switch {
		case err != nil:
		case status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		case !bytes.Equal(body, m.e.refs.other[path]):
			err = errMismatch
		}
		return start, d, err
	}
	// Cold: both clients ask for each program at once, in the seeded
	// order; the cache lets one request simulate and the other wait
	// for it, so the simulations run one at a time.
	for r := 0; r < coldRounds; r++ {
		if s != nil {
			st := &s.cache.Stats
			hits, misses = hits+st.Hits.Value(), misses+st.Misses.Value()
			if s != m.s {
				s.close()
			}
		}
		var err error
		if r == 0 && tr == nil {
			s = m.s
		} else if s, err = newServer(); err != nil {
			return err
		}
		for _, path := range m.cold {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					start, d, err := do(path)
					if rec.check("cold GET "+path, err) && c == 0 {
						name := path[len("/v1/report/"):]
						rec.sim(r, start, d, m.e.inv[invKey("quick", name, m.e.variant)].Retired)
					}
				}()
			}
			wg.Wait()
		}
	}

	// Warm: both clients take the next request of the stream until the
	// deadline, and for at least one round; rounds are warmSlice of time.
	rec.begin()
	warmStart := time.Now()
	if end := warmStart.Add(warmSlice); deadline.Before(end) {
		deadline = end
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				path := m.warm[int(next.Add(1)-1)%len(m.warm)]
				start, d, err := do(path)
				rec.op(coldRounds+int(start.Sub(warmStart)/warmSlice), start, d)
				rec.check("warm GET "+path, err)
			}
		}()
	}
	wg.Wait()
	rec.end()
	st := &s.cache.Stats
	rec.layer("resultcache.hits", "count", float64(hits+st.Hits.Value()))
	rec.layer("resultcache.misses", "count", float64(misses+st.Misses.Value()))
	return nil
}

func (m *serveMixed) close() { m.s.close() }
