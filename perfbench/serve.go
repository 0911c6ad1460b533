package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/store"
)

// serveWorkers is the job-pool width of the benchmarked server.
const serveWorkers = 2

// server is an in-process bo3serve with a result store: the wiring
// cmd/bo3serve does for -store-dir (one metrics registry shared by the
// manager and the store), listening on a loopback port.
type server struct {
	url  string
	st   *store.Store
	mgr  *serve.Manager
	hs   *http.Server
	done chan error

	closeOnce sync.Once
	closeErr  error
}

func startServer(dir string, seed uint64) (*server, error) {
	reg := metrics.NewRegistry()
	st, err := store.Open(dir, store.Options{Metrics: store.NewMetrics(reg)})
	if err != nil {
		return nil, err
	}
	mgr := serve.NewManager(serve.Config{Workers: serveWorkers, RootSeed: seed, Store: st, Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = mgr.Close(context.Background())
		_ = st.Close()
		return nil, err
	}
	s := &server{
		url:  "http://" + ln.Addr().String(),
		st:   st,
		mgr:  mgr,
		hs:   &http.Server{Handler: serve.NewServer(mgr), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener, drains the manager, then closes the store,
// in the order cmd/bo3serve uses, and returns once the server has exited.
// Later calls return the first call's error.
func (s *server) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := s.hs.Shutdown(ctx)
		if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		s.closeErr = errors.Join(err, s.mgr.Close(ctx), s.st.Close())
	})
	return s.closeErr
}

// serveSetup starts a server on a fresh store directory and runs warm
// against it; a failed warm-up closes the server.
func serveSetup(b *bench, rep int, warm func(*server) error) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(filepath.Join(b.work, "store-"+strconv.Itoa(rep)), b.seed)
	if err != nil {
		return nil, 0, err
	}
	if err := warm(srv); err != nil {
		return nil, 0, errors.Join(fmt.Errorf("warm-up: %w", err), srv.close())
	}
	return srv, time.Since(t0), nil
}

// serveSetups runs the set-up b.sc.setupReps times (once when traced),
// closing all but the last server, and records setup_s.
func serveSetups(b *bench, warm func(*server) error) (*server, error) {
	reps := b.sc.setupReps
	if b.tr != nil {
		reps = 1
	}
	var times []time.Duration
	for i := 0; ; i++ {
		srv, d, err := serveSetup(b, i, warm)
		if err != nil {
			return nil, err
		}
		times = append(times, d)
		if i == reps-1 {
			b.setSetup(times)
			return srv, nil
		}
		if err := srv.close(); err != nil {
			return nil, err
		}
	}
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
}

// postJSON posts in and decodes a 202 response into out.
func postJSON(c *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// tail reads an NDJSON stream to EOF, passing each line to fn.
func tail(c *http.Client, url string, fn func(line []byte) error) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if err := fn(sc.Bytes()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// waitRun tails a run's event stream to EOF and returns its terminal
// state frame and when it arrived. Tailing rather than polling means no
// poll interval adds to the measured latency.
func waitRun(c *http.Client, url, id string) (*serve.RunStateEvent, time.Time, error) {
	var (
		last *serve.RunStateEvent
		at   time.Time
	)
	err := tail(c, url+"/v1/runs/"+id+"/events", func(line []byte) error {
		var ev struct {
			Type string          `json:"type"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		if ev.Type != serve.EventState {
			return nil
		}
		var st serve.RunStateEvent
		if err := json.Unmarshal(ev.Data, &st); err != nil {
			return err
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateCancelled:
			last, at = &st, time.Now()
		}
		return nil
	})
	if err == nil && last == nil {
		err = fmt.Errorf("run %s: event stream ended without a terminal state", id)
	}
	return last, at, err
}

// prom is one scrape of GET /metrics: series (name plus labels) → value.
type prom map[string]float64

func scrape(c *http.Client, url string) (prom, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	p := prom{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		p[line[:i]] = v
	}
	return p, sc.Err()
}

// sum adds the series of family name whose labels contain label (all
// series when label is empty).
func (p prom) sum(name, label string) float64 {
	total := 0.0
	for series, v := range p {
		fam, labels, _ := strings.Cut(series, "{")
		if fam == name && strings.Contains(labels, label) {
			total += v
		}
	}
	return total
}

// serveLayers records the server-side per-layer metrics from the /metrics
// deltas over a window of jobs jobs lasting wall.
func (b *bench) serveLayers(before, after prom, jobs int, wall time.Duration) {
	d := func(name, label string) float64 { return after.sum(name, label) - before.sum(name, label) }
	mean := func(hist, label string) float64 {
		if n := d(hist+"_count", label); n > 0 {
			return d(hist+"_sum", label) / n
		}
		return 0
	}
	perJob := func(v float64) float64 { return v / float64(max(jobs, 1)) }
	b.metrics["serve.queue_wait_s"] = mean("bo3_job_queue_wait_seconds", "")
	b.metrics["serve.exec_s"] = mean("bo3_job_exec_seconds", "")
	for _, v := range []string{"sync", "async", "stubborn", "plurality"} {
		b.metrics["serve.exec_s."+v] = mean("bo3_job_exec_seconds", `variant="`+v+`"`)
	}
	b.metrics["serve.graph_s"] = mean("bo3_job_graph_seconds", "")
	b.metrics["serve.persist_s"] = mean("bo3_job_persist_seconds", "")
	b.metrics["serve.requests_per_job"] = perJob(d("bo3_http_requests_total", "") - d("bo3_http_requests_total", `route="GET /metrics"`))
	b.metrics["serve.worker_util"] = d("bo3_job_exec_seconds_sum", "") / (serveWorkers * wall.Seconds())
	b.metrics["store.read_s"] = mean("bo3_store_read_seconds", "")
	b.metrics["store.write_s"] = mean("bo3_store_write_seconds", "")
	if hits, misses := d("bo3_store_hits_total", ""), d("bo3_store_misses_total", ""); hits+misses > 0 {
		b.metrics["store.hit_ratio"] = hits / (hits + misses)
	}
	b.metrics["store.bytes_per_job"] = perJob(d("bo3_store_bytes_appended_total", ""))
	b.metrics["bus.published_per_job"] = perJob(d("bo3_bus_published_total", ""))
	b.metrics["bus.dropped"] = d("bo3_bus_dropped_total", "")
	b.metrics["bus.publish_s"] = mean("bo3_bus_publish_seconds", "")
}
