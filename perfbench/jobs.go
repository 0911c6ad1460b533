package main

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/serve"
	"repro/spec"
)

// serve-jobs-mixed: a closed loop of mixedClients clients, each POSTing an
// explicit-seed complete-virtual job and waiting for its terminal state.
// Each submission repeats one of the client's recently completed specs
// with probability ½ (a result-store hit: a read, no execution); otherwise it is
// fresh (execute, then persist). Each client draws from its own seeded
// stream, so the sequence of specs depends only on the workload seed.
const (
	mixedClients = 2
	mixedTrials  = 4
	mixedWarm    = 400 // warm-up jobs per client in set-up
	// mixedPool caps how many completed specs a client keeps to repeat: a
	// ring of the most recent, so client memory stays flat over a run and
	// max_rss_mb tracks the server.
	mixedPool = 4096
)

type mixedClient struct {
	b     *bench
	c     *http.Client
	url   string
	id    int
	rnd   *rng.Source
	fresh uint64
	// answers holds recently completed fresh specs, a ring of mixedPool.
	answers []firstAnswer
}

// firstAnswer is a fresh spec's result as first seen: the canonical
// projection of its terminal state frame (which carries no per-trial
// reports).
type firstAnswer struct {
	req    spec.RunSpec
	result serve.RunResult
}

type mixedJob struct {
	hit          bool
	completed    bool      // terminal state done was seen
	ok           bool      // passed the correctness gate
	start, at    time.Time // POST sent; terminal state seen
	lat          time.Duration
	submit, wait time.Duration
}

func newMixedClient(b *bench, c *http.Client, url string, id int) *mixedClient {
	return &mixedClient{b: b, c: c, url: url, id: id, rnd: rng.New(b.seedFor(seedClient, uint64(id)))}
}

func (mc *mixedClient) next() (spec.RunSpec, *firstAnswer) {
	if len(mc.answers) > 0 && mc.rnd.Bernoulli(0.5) {
		first := mc.answers[mc.rnd.Intn(len(mc.answers))]
		return first.req, &first
	}
	mc.fresh++
	return spec.RunSpec{
		Graph:  spec.GraphSpec{Family: "complete-virtual", N: mc.b.sc.serveN},
		Delta:  0.1,
		Trials: mixedTrials,
		Seed:   mc.b.seedFor(seedClient, uint64(mc.id), mc.fresh),
	}, nil
}

// do submits one job and waits for its terminal state; latency runs from
// the POST to the terminal state seen.
func (mc *mixedClient) do(plant bool) mixedJob {
	req, first := mc.next()
	j := mixedJob{hit: first != nil, start: time.Now()}
	var view serve.JobView
	err := postJSON(mc.c, mc.url+"/v1/runs", req, &view)
	t1 := time.Now()
	j.at, j.submit, j.lat = t1, t1.Sub(j.start), t1.Sub(j.start)
	if err != nil {
		return j
	}
	if first != nil {
		j.completed = view.State == serve.StateDone
		j.ok = hitOK(view, *first, plant)
		return j
	}
	if view.State != serve.StateQueued && view.State != serve.StateRunning {
		return j // a fresh spec must execute
	}
	st, at, err := waitRun(mc.c, mc.url, view.ID)
	if err != nil {
		return j
	}
	j.at, j.wait, j.lat = at, at.Sub(t1), at.Sub(j.start)
	j.completed = st.State == serve.StateDone
	if !j.completed || st.Result == nil {
		return j
	}
	r := st.Result
	j.ok = r.Trials == req.Trials && r.RedWins == req.Trials && r.Consensus == req.Trials && r.Seed == req.Seed
	if j.ok {
		fa := firstAnswer{req: req, result: serve.CanonicalResult(*r)}
		if len(mc.answers) < mixedPool {
			mc.answers = append(mc.answers, fa)
		} else {
			mc.answers[mc.fresh%mixedPool] = fa
		}
	}
	return j
}

// hitOK checks a store hit: answered done from the store, its per-trial
// reports consistent with its aggregate, and its canonical result equal to
// the spec's first answer. plant corrupts the reports first.
func hitOK(view serve.JobView, first firstAnswer, plant bool) bool {
	if view.State != serve.StateDone || view.Result == nil || !view.Result.Cached {
		return false
	}
	r := *view.Result
	if plant && len(r.Reports) > 0 {
		r.Reports[0].Rounds++
	}
	reds, cons, sum, most := 0, 0, 0, 0
	for _, t := range r.Reports {
		if t.RedWon {
			reds++
		}
		if t.Consensus {
			cons++
		}
		sum += t.Rounds
		most = max(most, t.Rounds)
	}
	if len(r.Reports) != r.Trials || reds != r.RedWins || cons != r.Consensus ||
		most != r.MaxRounds || float64(sum)/float64(r.Trials) != r.MeanRounds {
		return false
	}
	canon := serve.CanonicalResult(r)
	canon.Reports = nil
	return reflect.DeepEqual(canon, first.result)
}

// loop runs the clients concurrently until the deadline; a job in flight
// at the deadline completes and counts. Traced loops record a serve.job
// span per job, with serve.submit and serve.wait children.
func mixedLoop(b *bench, clients []*mixedClient, d time.Duration, traced bool) ([]mixedJob, windowStats) {
	per := make([][]mixedJob, len(clients))
	var wg sync.WaitGroup
	win := startWindow(d)
	deadline := win.t0.Add(d)
	for i, mc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			planted := false
			for k := 0; time.Now().Before(deadline); k++ {
				j := mc.do(b.plant && i == 0 && !planted)
				planted = planted || j.hit
				if traced {
					op := fmt.Sprintf("client-%d/job-%d", mc.id, k)
					submitted := j.start.Add(j.submit)
					id := b.tr.add("serve.job", op, 0, j.start, j.at)
					b.tr.add("serve.submit", op, id, j.start, submitted)
					if !j.hit {
						b.tr.add("serve.wait", op, id, submitted, j.at)
					}
				}
				per[i] = append(per[i], j)
			}
		}()
	}
	wg.Wait()
	ws := win.stop()
	var all []mixedJob
	for _, p := range per {
		all = append(all, p...)
	}
	return all, ws
}

func runServeJobsMixed(b *bench) error {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	var clients []*mixedClient
	srv, err := serveSetups(b, func(s *server) error {
		clients = clients[:0]
		for i := 0; i < mixedClients; i++ {
			mc := newMixedClient(b, c, s.url, i)
			for k := 0; k < mixedWarm; k++ {
				if j := mc.do(false); !j.ok {
					return fmt.Errorf("client %d warm-up job %d failed", i, k)
				}
			}
			clients = append(clients, mc)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer srv.close()

	// window runs the loop between two /metrics scrapes, gates every job,
	// and reconciles the server's completed-jobs counter with the jobs the
	// clients saw complete.
	window := func(d time.Duration, traced bool) ([]mixedJob, windowStats, prom, prom, error) {
		before, err := scrape(c, srv.url)
		if err != nil {
			return nil, windowStats{}, nil, nil, err
		}
		jobs, ws := mixedLoop(b, clients, d, traced)
		after, err := scrape(c, srv.url)
		if err != nil {
			return nil, windowStats{}, nil, nil, err
		}
		seen := 0
		for _, j := range jobs {
			b.check(j.ok)
			if j.completed {
				seen++
			}
		}
		b.check(after.sum("bo3_jobs_completed_total", "")-before.sum("bo3_jobs_completed_total", "") == float64(seen))
		return jobs, ws, before, after, nil
	}
	latencies := func(jobs []mixedJob, hit bool) []time.Duration {
		var lat []time.Duration
		for _, j := range jobs {
			if j.hit == hit {
				lat = append(lat, j.lat)
			}
		}
		return lat
	}

	if b.tr == nil {
		jobs, ws, _, _, err := window(b.window, false)
		if err != nil {
			return err
		}
		ds := make([]done, len(jobs))
		for i, j := range jobs {
			ds[i] = done{at: j.at, lat: j.lat, trials: mixedTrials}
		}
		b.setE2E(ws, ds)
		return srv.close()
	}

	b.metrics["opinion.ns_per_vertex"] = timeRandomConfig(b, b.sc.serveN, 0.4)
	t0 := time.Now()
	if _, err := (spec.GraphSpec{Family: "complete-virtual", N: b.sc.serveN}).Build(); err != nil {
		return err
	}
	b.metrics["graph.build_s"] = time.Since(t0).Seconds()
	jobsU, wsU, _, _, err := window(b.window/2, false)
	if err != nil {
		return err
	}
	b.setRuntime(wsU, len(jobsU))
	jobsT, wsT, before, after, err := window(b.window/2, true)
	if err != nil {
		return err
	}
	b.serveLayers(before, after, len(jobsT), wsT.wall)
	layers := b.tr.selfTimes()
	b.metrics["serve.submit_ms"] = layers["serve.submit"].TotalS * 1e3 / float64(max(layers["serve.submit"].Count, 1))
	b.metrics["serve.wait_ms"] = layers["serve.wait"].TotalS * 1e3 / float64(max(layers["serve.wait"].Count, 1))
	b.metrics["serve.hit_p50_ms"] = ms(median(latencies(jobsT, true)))
	b.metrics["serve.miss_p50_ms"] = ms(median(latencies(jobsT, false)))
	b.metrics["trace.overhead_frac"] = (float64(len(jobsU))/wsU.wall.Seconds())/(float64(len(jobsT))/wsT.wall.Seconds()) - 1
	return srv.close()
}
