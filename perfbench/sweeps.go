package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/spec"
)

// sweep-variants: two closed-loop clients, each POSTing fresh-seed sweeps
// over one pool-warmed random-regular graph and tailing the result stream
// to EOF. Sweep A runs every variant at noise 0; sweep B runs the variants
// that accept noise at noise 0.01 (plurality rejects noise). Each cell is
// a server job; its latency runs from its sweep's POST to the cell's line
// on the results stream.
const (
	sweepTrials    = 8
	sweepMaxRounds = 512
	sweepNoise     = 0.01
)

var (
	sweepVariantsA = []spec.VariantSpec{{Name: "sync"}, {Name: "async"}, {Name: "stubborn", StubbornFrac: 0.2}, {Name: "plurality", Q: 4}}
	sweepVariantsB = sweepVariantsA[:3]
)

type sweeper struct {
	b   *bench
	c   *http.Client
	url string
	gs  spec.GraphSpec
}

// cellJob is one sweep cell as the client saw it.
type cellJob struct {
	at  time.Time
	lat time.Duration
	ok  bool
}

// sweepRun is one sweep's submit and wait.
type sweepRun struct {
	id           string
	start        time.Time
	submit, wait time.Duration
	cells        []cellJob
	err          error
}

func (sw *sweeper) request(variants []spec.VariantSpec, noise float64, seed uint64) serve.SweepRequest {
	g := serve.SweepGrid{
		Graphs:   []spec.GraphSpec{sw.gs},
		Deltas:   []float64{0.1},
		Trials:   []int{sweepTrials},
		Variants: variants,
	}
	if noise > 0 {
		g.Noises = []float64{noise}
	}
	return serve.SweepRequest{Grid: g, MaxRounds: sweepMaxRounds, Seed: seed}
}

// run submits one sweep of want cells and tails its results to EOF. The
// gate: every cell is done with all its trials, and the final aggregate
// covers every cell. plant drops one cell from the aggregate first.
func (sw *sweeper) run(req serve.SweepRequest, want int, plant bool) sweepRun {
	r := sweepRun{start: time.Now()}
	var view serve.SweepView
	if r.err = postJSON(sw.c, sw.url+"/v1/sweeps", req, &view); r.err != nil {
		return r
	}
	r.id = view.ID
	r.submit = time.Since(r.start)
	var final *serve.SweepView
	seen := map[int]bool{}
	r.err = tail(sw.c, sw.url+"/v1/sweeps/"+view.ID+"/results", func(line []byte) error {
		var ev serve.SweepEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		switch {
		case ev.Cell != nil:
			c := ev.Cell
			ok := c.State == serve.StateDone && c.Result != nil && c.Result.Trials == sweepTrials && !seen[c.Index]
			seen[c.Index] = true
			now := time.Now()
			r.cells = append(r.cells, cellJob{at: now, lat: now.Sub(r.start), ok: ok})
		case ev.Sweep != nil:
			final = ev.Sweep
		}
		return nil
	})
	r.wait = time.Since(r.start) - r.submit
	if r.err == nil && final == nil {
		r.err = fmt.Errorf("sweep %s: results stream ended without the sweep summary", view.ID)
	}
	if r.err != nil {
		return r
	}
	agg := final.Aggregate
	if plant {
		agg.Done--
	}
	covered := final.State == serve.StateDone && len(r.cells) == want && len(seen) == want &&
		agg.Cells == want && agg.Done == want && agg.Trials == want*sweepTrials
	for i := range r.cells {
		r.cells[i].ok = r.cells[i].ok && covered
	}
	return r
}

// sweepKind is one of the two sweeps a client loop submits.
type sweepKind struct {
	variants []spec.VariantSpec
	noise    float64
	stream   uint64 // seed label of the sweep seeds
}

var sweepKinds = []sweepKind{
	{sweepVariantsA, 0, seedSweepA},
	{sweepVariantsB, sweepNoise, seedSweepB},
}

// loop runs one closed-loop client per sweep kind for d; a sweep in flight
// at the deadline completes and counts. Traced loops record a serve.sweep
// span per sweep with serve.submit and serve.wait children.
func (sw *sweeper) loop(label uint64, d time.Duration, traced bool) ([]sweepRun, windowStats, error) {
	per := make([][]sweepRun, len(sweepKinds))
	var wg sync.WaitGroup
	win := startWindow(d)
	deadline := win.t0.Add(d)
	for k, kind := range sweepKinds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				req := sw.request(kind.variants, kind.noise, sw.b.seedFor(kind.stream, label, uint64(i)))
				r := sw.run(req, len(kind.variants), sw.b.plant && k == 0 && i == 0)
				per[k] = append(per[k], r)
				if r.err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	ws := win.stop()
	var runs []sweepRun
	for _, p := range per {
		for _, r := range p {
			if r.err != nil {
				return nil, ws, r.err
			}
			if traced {
				id := sw.b.tr.add("serve.sweep", r.id, 0, r.start, r.start.Add(r.submit+r.wait))
				sw.b.tr.add("serve.submit", r.id, id, r.start, r.start.Add(r.submit))
				sw.b.tr.add("serve.wait", r.id, id, r.start.Add(r.submit), r.start.Add(r.submit+r.wait))
			}
			runs = append(runs, r)
		}
	}
	return runs, ws, nil
}

// gate checks every cell and returns them as completed jobs.
func (sw *sweeper) gate(runs []sweepRun) []done {
	var ds []done
	for _, r := range runs {
		for _, c := range r.cells {
			sw.b.check(c.ok)
			ds = append(ds, done{at: c.at, lat: c.lat, trials: sweepTrials})
		}
	}
	return ds
}

func runSweepVariants(b *bench) error {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	gs := spec.GraphSpec{Family: "random-regular", N: b.sc.sweepN, D: b.sc.sweepD, Seed: b.seedFor(seedGraph)}
	var sw *sweeper
	srv, err := serveSetups(b, func(s *server) error {
		sw = &sweeper{b: b, c: c, url: s.url, gs: gs}
		// Warm the graph pool with one job on the sweep graph, then run
		// one sweep of each kind.
		var view serve.JobView
		if err := postJSON(c, s.url+"/v1/runs", spec.RunSpec{Graph: gs, Delta: 0.1, Seed: b.seedFor(seedWarm)}, &view); err != nil {
			return err
		}
		if st, _, err := waitRun(c, s.url, view.ID); err != nil || st.State != serve.StateDone {
			return fmt.Errorf("graph warm-up job: %v", err)
		}
		for _, k := range sweepKinds {
			if r := sw.run(sw.request(k.variants, k.noise, b.seedFor(k.stream, seedWarm)), len(k.variants), false); r.err != nil {
				return r.err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer srv.close()

	if b.tr == nil {
		runs, ws, err := sw.loop(seedTimed, b.window, false)
		if err != nil {
			return err
		}
		b.setE2E(ws, sw.gate(runs))
		return srv.close()
	}

	t0 := time.Now()
	g, err := gs.Build()
	if err != nil {
		return err
	}
	b.metrics["graph.build_s"] = time.Since(t0).Seconds()
	b.metrics["graph.csr_bytes"] = csrBytes(g)
	b.metrics["opinion.ns_per_vertex"] = timeRandomConfig(b, b.sc.sweepN, 0.4)
	runsU, wsU, err := sw.loop(seedTimed, b.window/2, false)
	if err != nil {
		return err
	}
	cellsU := len(sw.gate(runsU))
	b.setRuntime(wsU, cellsU)
	before, err := scrape(c, srv.url)
	if err != nil {
		return err
	}
	runsT, wsT, err := sw.loop(seedTraced, b.window/2, true)
	if err != nil {
		return err
	}
	after, err := scrape(c, srv.url)
	if err != nil {
		return err
	}
	doneT := sw.gate(runsT)
	cellsT := len(doneT)
	b.serveLayers(before, after, cellsT, wsT.wall)
	layers := b.tr.selfTimes()
	b.metrics["serve.submit_ms"] = layers["serve.submit"].TotalS * 1e3 / float64(max(layers["serve.submit"].Count, 1))
	b.metrics["serve.wait_ms"] = layers["serve.wait"].TotalS * 1e3 / float64(max(layers["serve.wait"].Count, 1))
	var latT []time.Duration
	for _, d := range doneT {
		latT = append(latT, d.lat)
	}
	b.metrics["serve.miss_p50_ms"] = ms(median(latT))
	b.metrics["trace.overhead_frac"] = (float64(cellsU)/wsU.wall.Seconds())/(float64(cellsT)/wsT.wall.Seconds()) - 1
	return srv.close()
}
