package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
	"repro/spec"
)

// trialsWorkload is a closed loop of library jobs: one caller runs
// repro.Runner on spec after spec, all on one topology built in set-up.
// A job is one Runner.Run call of trialsPerJob trials.
type trialsWorkload struct {
	graph   spec.GraphSpec
	delta   float64
	engine  string
	workers int // Runner workers (concurrent trials)
}

// runTrialsKn is the paper's complete-graph case on the mean-field
// engine, where nearly all trial time is the initial colouring.
func runTrialsKn(b *bench) error {
	return trialsWorkload{
		graph:   spec.GraphSpec{Family: "complete-virtual", N: b.sc.knN},
		delta:   0.1,
		workers: runtime.GOMAXPROCS(0),
	}.run(b)
}

// runTrialsRegularDense is a dense d = n^½ random-regular graph on the
// general engine, where nearly all trial time is Process.Step. One Runner
// worker: two gave bimodal throughput on a 2-vCPU machine.
func runTrialsRegularDense(b *bench) error {
	return trialsWorkload{
		graph:   spec.GraphSpec{Family: "random-regular", N: b.sc.rrN, D: b.sc.rrD, Seed: b.seedFor(seedGraph)},
		delta:   0.05,
		engine:  "general",
		workers: 1,
	}.run(b)
}

func (w trialsWorkload) spec(b *bench, seed uint64) spec.RunSpec {
	return spec.RunSpec{Graph: w.graph, Delta: w.delta, Trials: b.sc.trialsPerJob, Seed: seed, Engine: w.engine}
}

// libJob is one Runner.Run call and what it returned.
type libJob struct {
	spec     spec.RunSpec
	outcomes []repro.TrialOutcome
	at       time.Time // when Run returned
	lat      time.Duration
	err      error
}

func (w trialsWorkload) job(ctx context.Context, g core.Topology, s spec.RunSpec, workers int) libJob {
	j := libJob{spec: s}
	r, err := repro.NewRunner(s, repro.WithTopology(g), repro.WithWorkers(workers))
	if err != nil {
		j.err = err
		return j
	}
	t0 := time.Now()
	rep, err := r.Run(ctx)
	j.at = time.Now()
	j.lat = j.at.Sub(t0)
	if err != nil {
		j.err = err
		return j
	}
	j.outcomes = rep.Outcomes
	return j
}

// loop runs jobs back to back for d; the job in flight at the deadline
// completes and counts.
func (w trialsWorkload) loop(ctx context.Context, b *bench, g core.Topology, label uint64, workers int, d time.Duration) ([]libJob, windowStats) {
	var jobs []libJob
	win := startWindow(d)
	for i := 0; time.Since(win.t0) < d; i++ {
		jobs = append(jobs, w.job(ctx, g, w.spec(b, b.seedFor(label, uint64(i))), workers))
	}
	return jobs, win.stop()
}

// trialsOK is the correctness gate: every trial of the job ends in Red
// consensus within core.RoundBudget. At these sizes and imbalances that
// holds for any random stream, so a change of stream needs no new
// expected values.
func trialsOK(s spec.RunSpec, outcomes []repro.TrialOutcome, budget int) bool {
	if len(outcomes) != s.Trials {
		return false
	}
	for _, o := range outcomes {
		if !o.Consensus || !o.RedWon || o.Rounds > budget {
			return false
		}
	}
	return true
}

// warmJobs is how many jobs set-up runs after building the topology.
const warmJobs = 4

// setup builds the topology and runs warmJobs warm-up jobs.
func (w trialsWorkload) setup(ctx context.Context, b *bench) (g core.Topology, total, build time.Duration, err error) {
	t0 := time.Now()
	g, err = w.graph.Build()
	build = time.Since(t0)
	if err != nil {
		return nil, 0, 0, err
	}
	for i := 0; i < warmJobs; i++ {
		if j := w.job(ctx, g, w.spec(b, b.seedFor(seedWarm, uint64(i))), w.workers); j.err != nil {
			return nil, 0, 0, fmt.Errorf("warm-up job: %w", j.err)
		}
	}
	return g, time.Since(t0), build, nil
}

func (w trialsWorkload) run(b *bench) error {
	ctx := context.Background()
	if b.tr != nil {
		return w.runTraced(ctx, b)
	}
	var (
		g      core.Topology
		setups []time.Duration
	)
	for i := 0; i < b.sc.setupReps; i++ {
		gi, d, _, err := w.setup(ctx, b)
		if err != nil {
			return err
		}
		g, setups = gi, append(setups, d)
	}
	b.setSetup(setups)
	jobs, ws := w.loop(ctx, b, g, seedTimed, w.workers, b.window)
	budget := core.RoundBudget(g, w.delta, 0)
	var ds []done
	for k, j := range jobs {
		if b.plant && k == 0 && len(j.outcomes) > 0 {
			j.outcomes[0].RedWon = false
		}
		b.check(j.err == nil && trialsOK(j.spec, j.outcomes, budget))
		ds = append(ds, done{at: j.at, lat: j.lat, trials: len(j.outcomes)})
	}
	b.setE2E(ws, ds)
	return nil
}

// runTraced measures the per-layer split: an untraced window of Runner
// jobs, then the same jobs replayed trial by trial through core.Run with
// its OnRound hook timing each trial's init, rounds and tail. The replay
// must reproduce every untraced outcome.
func (w trialsWorkload) runTraced(ctx context.Context, b *bench) error {
	g, _, build, err := w.setup(ctx, b)
	if err != nil {
		return err
	}
	n := g.N()
	b.metrics["graph.build_s"] = build.Seconds()
	b.metrics["graph.csr_bytes"] = csrBytes(g)
	b.metrics["opinion.ns_per_vertex"] = timeRandomConfig(b, n, 0.5-w.delta)

	jobs, ws := w.loop(ctx, b, g, seedTimed, w.workers, b.window/2)
	b.setRuntime(ws, len(jobs))
	budget := core.RoundBudget(g, w.delta, 0)
	trials, rounds := 0, 0
	t0 := time.Now()
	for k, j := range jobs {
		replay, err := w.replay(ctx, b, g, j.spec, fmt.Sprintf("job-%d", k))
		if b.plant && k == 0 && len(replay) > 0 {
			replay[0].Rounds++
		}
		same := err == nil && j.err == nil && len(replay) == len(j.outcomes)
		for i := 0; same && i < len(replay); i++ {
			same = replay[i] == j.outcomes[i]
		}
		b.check(same && trialsOK(j.spec, j.outcomes, budget))
		trials += len(j.outcomes)
		for _, o := range replay {
			rounds += o.Rounds
		}
	}
	tracedWall := time.Since(t0)
	untracedTPS := float64(trials) / ws.wall.Seconds()
	b.metrics["trace.overhead_frac"] = untracedTPS/(float64(trials)/tracedWall.Seconds()) - 1

	layers := b.tr.selfTimes()
	trial := layers["core.trial"]
	perTrial := func(name string) float64 { return layers[name].SelfS / float64(max(trial.Count, 1)) }
	frac := func(name string) float64 { return layers[name].SelfS / trial.TotalS }
	b.metrics["core.init_s"], b.metrics["core.init_frac"] = perTrial("core.init"), frac("core.init")
	b.metrics["core.rounds_s"], b.metrics["core.rounds_frac"] = perTrial("core.rounds"), frac("core.rounds")
	b.metrics["core.tail_s"] = perTrial("core.tail")
	b.metrics["core.rounds"] = float64(rounds)
	updates := float64(n) * float64(rounds)
	b.metrics["dynamics.vertex_updates"] = updates
	if updates > 0 {
		b.metrics["dynamics.ns_per_vertex_update"] = layers["core.rounds"].SelfS * 1e9 / updates
	}
	rule, err := w.spec(b, 0).DynamicsRule()
	if err != nil {
		return err
	}
	engine, err := w.spec(b, 0).EngineMode()
	if err != nil {
		return err
	}
	if core.EngineFor(g, rule, engine) == "general" {
		// Computed, not measured: each update gathers k neighbour IDs
		// (4 B of adjacency) and their opinion words (8 B).
		b.metrics["dynamics.gather_bytes_computed"] = updates * float64(rule.K) * 12
	}
	// The share of the untraced Runner's worker time that the traced
	// trials do not account for: scheduling, aggregation, and the gaps
	// between jobs.
	workerTime := ws.wall.Seconds() * float64(w.workers)
	b.metrics["repro.residual_frac"] = (workerTime - trial.TotalS) / workerTime
	if w.workers > 1 {
		one, ws1 := w.loop(ctx, b, g, seedScaling, 1, b.window/4)
		oneTrials := 0
		for _, j := range one {
			b.check(j.err == nil && trialsOK(j.spec, j.outcomes, budget))
			oneTrials += len(j.outcomes)
		}
		b.metrics["repro.scaling_x"] = untracedTPS / (float64(oneTrials) / ws1.wall.Seconds())
	}
	return nil
}

// replay runs the job's trials through core.Run with the options the
// Runner uses, on a pool as wide as the Runner's, recording spans: the job,
// each trial, and the trial's init (start → round-0 callback), rounds
// (round 0 → last callback) and tail (last callback → result).
func (w trialsWorkload) replay(ctx context.Context, b *bench, g core.Topology, s spec.RunSpec, op string) ([]repro.TrialOutcome, error) {
	rule, err := s.DynamicsRule()
	if err != nil {
		return nil, err
	}
	engine, err := s.EngineMode()
	if err != nil {
		return nil, err
	}
	type times struct{ start, first, last, end time.Time }
	var (
		out  = make([]repro.TrialOutcome, s.Trials)
		ts   = make([]times, s.Trials)
		errs = make([]error, s.Trials)
		next atomic.Int64
		wg   sync.WaitGroup
	)
	jobStart := time.Now()
	for k := 0; k < min(w.workers, s.Trials); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < s.Trials; i = int(next.Add(1) - 1) {
				t := &ts[i]
				opt := core.Options{
					Seed:      s.TrialSeed(i),
					MaxRounds: s.MaxRounds,
					Workers:   1,
					Rule:      rule,
					Engine:    engine,
					Variant:   s.CoreVariant(),
					OnRound: func(round, _ int) {
						t.last = time.Now()
						if round == 0 {
							t.first = t.last
						}
					},
				}
				t.start = time.Now()
				rep, err := core.Run(ctx, g, s.Delta, opt)
				t.end = time.Now()
				errs[i] = err
				out[i] = repro.TrialOutcome{Trial: i, Seed: opt.Seed, RedWon: rep.RedWon, Consensus: rep.Consensus, Rounds: rep.Rounds}
			}
		}()
	}
	wg.Wait()
	job := b.tr.add("repro.job", op, 0, jobStart, time.Now())
	for i, t := range ts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		trialOp := fmt.Sprintf("%s/trial-%d", op, i)
		id := b.tr.add("core.trial", trialOp, job, t.start, t.end)
		b.tr.add("core.init", trialOp, id, t.start, t.first)
		b.tr.add("core.rounds", trialOp, id, t.first, t.last)
		b.tr.add("core.tail", trialOp, id, t.last, t.end)
	}
	return out, nil
}

// timeRandomConfig times opinion.RandomConfig at n vertices directly and
// returns the median ns per vertex over at least 5 calls and 200 ms.
func timeRandomConfig(b *bench, n int, pBlue float64) float64 {
	var ts []time.Duration
	for start := time.Now(); len(ts) < 5 || time.Since(start) < 200*time.Millisecond; {
		src := rng.New(b.seedFor(seedOpinion, uint64(len(ts))))
		t0 := time.Now()
		opinion.RandomConfig(n, pBlue, src)
		ts = append(ts, time.Since(t0))
	}
	return float64(median(ts).Nanoseconds()) / float64(n)
}

// csrBytes is the computed size of a materialised graph's CSR arrays
// (int32 offsets and adjacency); 0 for a virtual topology.
func csrBytes(g core.Topology) float64 {
	cg, ok := g.(*graph.Graph)
	if !ok {
		return 0
	}
	return float64(4 * (cg.N() + 1 + 2*cg.M()))
}
