package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"agnn/internal/fuse"
	"agnn/internal/gnn"
	"agnn/internal/obs/metrics"
	"agnn/internal/serving"
)

// serve-ego: open-loop single-vertex PredictTraced queries against a
// 2-layer GAT on a heavy-tailed Kronecker graph, with the engine at the
// agnn-serve defaults (2 ms window, max batch 64, 1 runner, 256 MiB plan
// cache). Arrivals are Poisson; 80% of queries come from a fixed hot set.
const (
	serveHot     = 256 // hot-set size
	serveHotFrac = 0.8
	// The fixed rates are about 15% and 30% of the saturation goodput
	// (about 6600 qps on 2 cores) measured at the commit that defined this
	// workload. A busy shared host was seen to halve that capacity, and
	// the high rate must stay clear of it then too: near capacity the
	// engine refuses requests, and queueing multiplies any slowdown into
	// the latencies. The step-up ladder climbs from the high rate to past
	// capacity.
	serveLowQPS   = 1000.0
	serveHighQPS  = 2000.0
	serveP99Limit = 0.050 // seconds
	serveStepUp   = 1.3   // rate multiplier between step-up probes
	serveProbes   = 5     // step-up probes above the high rate
	serveRounds   = 4     // alternating low/high rounds
	servePhase    = 0.012 // low-rate phase length, as a share of --seconds
	// Throughput is measured by a closed loop of callers that keeps two
	// full micro-batches in flight: the engine is never idle and, the
	// admission queue holding four batches, never refuses.
	serveSatClients = 128
	serveSatReqs    = 2000 // queries per saturation run
	serveSatRuns    = 7
	serveMinReqs    = 1000 // requests per rate phase, at least
	serveSamples    = 200  // responses kept for the correctness check
)

// missedLat is the latency recorded for a refused or failed request: it
// misses every limit, and unlike +Inf it survives JSON encoding.
const missedLat = 1e9

// serveQuery is one scheduled request.
type serveQuery struct {
	vertex int
	due    time.Duration // offset from the phase start
}

// serveOutcome is what the generator observed for one request.
type serveOutcome struct {
	lat    float64 // seconds from the scheduled send time; missedLat when refused or failed
	lag    float64 // how late the generator sent it
	done   time.Time
	timing serving.Timing
	err    error
}

// phaseResult summarizes one open-loop phase at a fixed rate.
type phaseResult struct {
	Rate    float64 `json:"rate_qps"`
	N       int     `json:"requests"`
	P50     float64 `json:"p50_s"`
	P99     float64 `json:"p99_s"`
	Refused int     `json:"refused"`
	Errors  int     `json:"errors"`
	LagP99  float64 `json:"lag_p99_s"`
	Goodput float64 `json:"goodput_qps"` // answered requests per second
	outs    []serveOutcome
}

// passes reports whether the phase met the p99 limit; refused and failed
// requests count as missing it.
func (p phaseResult) passes() bool { return p.P99 <= serveP99Limit }

type serveRig struct {
	eng     *serving.Engine
	n       int
	hot     []int
	rng     *rand.Rand
	mu      sync.Mutex
	samples map[int][]float64 // vertex → logits, for the correctness check
}

// schedule draws n Poisson arrivals at rate qps with the hot/uniform mix.
func (s *serveRig) schedule(qps float64, n int) []serveQuery {
	qs := make([]serveQuery, n)
	t := 0.0
	for i := range qs {
		t += s.rng.ExpFloat64() / qps
		v := s.rng.Intn(s.n)
		if s.rng.Float64() < serveHotFrac {
			v = s.hot[s.rng.Intn(len(s.hot))]
		}
		qs[i] = serveQuery{vertex: v, due: time.Duration(t * 1e9)}
	}
	return qs
}

// phase runs one open-loop phase: every request is sent at its scheduled
// time whether or not earlier ones have returned, and is timed from that
// scheduled time.
func (s *serveRig) phase(qps, seconds float64, tr *tracer, step *int64) phaseResult {
	qs := s.schedule(qps, max(serveMinReqs, int(qps*seconds)))
	outs := make([]serveOutcome, len(qs))
	var wg sync.WaitGroup
	ctx := context.Background()
	start := time.Now()
	for i, q := range qs {
		due := start.Add(q.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		id := *step
		*step++
		wg.Add(1)
		go func(i int, q serveQuery) {
			defer wg.Done()
			preds, tm, err := s.eng.PredictTraced(ctx, []int{q.vertex}, "")
			done := time.Now()
			o := serveOutcome{lat: done.Sub(due).Seconds(), lag: sent.Sub(due).Seconds(), done: done, timing: tm, err: err}
			if err != nil {
				o.lat = missedLat
			} else {
				s.mu.Lock()
				if len(s.samples) < serveSamples {
					s.samples[q.vertex] = preds[0].Logits
				}
				s.mu.Unlock()
			}
			outs[i] = o
			if tr != nil {
				root := tr.record("request", -1, id, 0, due, done)
				tr.record("loadgen.lag", root, id, 0, due, sent)
				tr.record("serving.predict", root, id, 0, sent, done)
			}
		}(i, q)
	}
	wg.Wait()
	res := phaseResult{Rate: qps, N: len(outs), outs: outs}
	lats := make([]float64, len(outs))
	lags := make([]float64, len(outs))
	var last time.Time
	for i, o := range outs {
		lats[i], lags[i] = o.lat, o.lag
		switch {
		case errors.Is(o.err, serving.ErrOverloaded):
			res.Refused++
		case o.err != nil:
			res.Errors++
		}
		if o.done.After(last) {
			last = o.done
		}
	}
	res.Goodput = float64(len(outs)-res.Refused-res.Errors) / last.Sub(start).Seconds()
	res.P50, res.P99 = quantile(lats, 0.5), quantile(lats, 0.99)
	res.LagP99 = quantile(lags, 0.99)
	return res
}

func runServeEgo(e *env, sh shape) error {
	start := time.Now()
	in := sh.generate(e.seed)
	in.report(e)
	a, h := in.a, in.h
	rng := rand.New(rand.NewSource(e.seed + 2))
	model, err := gnn.New(sh.config(gnn.GAT, e.seed), a)
	if err != nil {
		return err
	}
	adj, err := model.Adjacency()
	if err != nil {
		return err
	}
	fuse.Shared.SetBudget(fuse.DefaultBudgetBytes)
	eng, err := serving.NewEngine(serving.Config{Model: model, Adj: adj, Features: h})
	if err != nil {
		return err
	}
	defer eng.Stop()
	rig := &serveRig{eng: eng, n: a.Rows, rng: rng, samples: map[int][]float64{}}
	for _, v := range rng.Perm(a.Rows)[:min(serveHot, a.Rows)] {
		rig.hot = append(rig.hot, v)
	}
	// Cache warm-up users also pay: one query per hot vertex compiles the
	// plans of every single-vertex ego subgraph in the hot set.
	for _, v := range rig.hot {
		if _, err := eng.Predict(context.Background(), []int{v}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	setupS := time.Since(start).Seconds()
	if e.setupOnly {
		e.setE2E("setup_s", setupS)
		return nil
	}

	before := metrics.Default.Snapshot()
	rejected0 := metrics.ServeRejectedTotal.Value()
	var step int64
	// The fixed rates run in alternating rounds (low, high, low, high, …)
	// and each latency is the median over the rounds, so a transient stall
	// of the machine moves one round, not the result. Every executed
	// micro-batch compiles a plan for a new subgraph structure and the
	// program's memory grows with each, so all phases together take less
	// than half the run length. A traced run repeats the rounds traced
	// instead of climbing the ladder.
	rounds := serveRounds
	if e.trace {
		rounds = 3
	}
	runRounds := func(tr *tracer) (lows, highs []phaseResult) {
		for r := 0; r < rounds; r++ {
			lows = append(lows, rig.phase(serveLowQPS, servePhase*e.seconds, tr, &step))
			highs = append(highs, rig.phase(serveHighQPS, 0.75*servePhase*e.seconds, tr, &step))
		}
		return lows, highs
	}
	lows, highs := runRounds(nil)
	phases := append(append([]phaseResult(nil), lows...), highs...)
	low := medianPhase(lows)
	high := medianPhase(highs)
	// Step-up: a fixed ladder of rates above the high rate. Every probe
	// runs, so each run does the same work; the highest rate whose p99 and
	// every lower rung's stayed within the limit is serve_max_qps. Last,
	// closed-loop saturation runs: their median goodput (requests answered
	// per second) is the engine's throughput.
	maxQPS, goodput := 0.0, 0.0
	if !e.trace {
		ok := high.passes()
		if ok {
			maxQPS = serveHighQPS
		}
		for k, r := 1, serveHighQPS; k <= serveProbes; k++ {
			r *= serveStepUp
			p := rig.phase(r, 0.75*servePhase*e.seconds, nil, &step)
			phases = append(phases, p)
			if ok = ok && p.passes(); ok {
				maxQPS = r
			}
		}
		var goods []float64
		for r := 0; r < serveSatRuns; r++ {
			g, failed := rig.saturate(serveSatReqs)
			goods = append(goods, g)
			e.attempted += serveSatReqs
			e.failed += failed
		}
		goodput = median(goods)
		e.detail["saturation_goodput_qps"] = goods
	}
	var tlows, thighs []phaseResult
	if e.trace {
		e.spans = newTracer()
		tlows, thighs = runRounds(e.spans)
		e.setLayer("trace.overhead_frac", medianPhase(thighs).P50/high.P50-1)
	}
	after := metrics.Default.Snapshot()
	rss := peakRSSMB()

	e.samples["requests"] = int(step)
	e.samples["rounds"] = rounds
	e.samples["requests_low_round"] = lows[0].N
	e.samples["requests_high_round"] = highs[0].N
	e.setE2E("setup_s", setupS)
	e.setE2E("step_s_p50", high.P50)
	e.setE2E("step_s_tail", high.P99)
	e.setE2E("ops_per_s", goodput)
	e.setE2E("peak_rss_mb", rss)
	// Refusals and errors at the fixed rates (and, counted above, failures
	// of the closed-loop saturation runs) are failed operations; the
	// ladder goes past capacity on purpose.
	fixed := append(append(append(append([]phaseResult(nil), lows...), highs...), tlows...), thighs...)
	for _, p := range fixed {
		e.attempted += p.N
		e.failed += p.Refused + p.Errors
	}
	e.detail["phases"] = phases
	e.detail["serve"] = map[string]any{"serve_p50_s.low": low.P50, "serve_p99_s.low": low.P99,
		"serve_p50_s.high": high.P50, "serve_p99_s.high": high.P99, "serve_max_qps": maxQPS, "goodput_qps": goodput,
		"low_qps": serveLowQPS, "high_qps": serveHighQPS, "p99_limit_s": serveP99Limit}

	e.setLayer("tensor.arena_peak_bytes", metrics.ArenaPeakBytes.Value())
	e.reportFuse(before, after, int(step), in.stats.M)
	e.setLayer("serve.p50_s.low", low.P50)
	e.setLayer("serve.p99_s.low", low.P99)
	e.setLayer("serve.max_qps", maxQPS)
	e.setLayer("serving.rejected", float64(metrics.ServeRejectedTotal.Value()-rejected0))
	stage := append(tlows, thighs...)
	if !e.trace {
		stage = append(lows, highs...)
	}
	var queue, batch, expand, plan, seeds, lags []float64
	for _, p := range stage {
		for _, o := range p.outs {
			if o.err != nil {
				continue
			}
			queue = append(queue, float64(o.timing.QueueNs)/1e9)
			batch = append(batch, float64(o.timing.BatchNs)/1e9)
			expand = append(expand, float64(o.timing.ExpandNs)/1e9)
			plan = append(plan, float64(o.timing.PlanNs)/1e9)
			seeds = append(seeds, float64(o.timing.Seeds))
			lags = append(lags, o.lag)
		}
	}
	e.setLayer("serving.queue_s_p99", quantile(queue, 0.99))
	e.setLayer("serving.batch_wait_s_p50", quantile(batch, 0.5))
	e.setLayer("serving.expand_s_p50", quantile(expand, 0.5))
	e.setLayer("serving.plan_s_p50", quantile(plan, 0.5))
	e.setLayer("serving.plan_s_p99", quantile(plan, 0.99))
	e.setLayer("serving.batch_seeds_mean", mean(seeds))
	e.setLayer("loadgen.lag_s_p99", quantile(lags, 0.99))

	// Correctness, after timing: sampled served logits against the
	// full-graph forward.
	eng.Stop()
	full := model.Forward(h, false)
	worst := 0.0
	verts := make([]int, 0, len(rig.samples))
	for v := range rig.samples {
		verts = append(verts, v)
	}
	sort.Ints(verts)
	for _, v := range verts {
		worst = max(worst, maxRelDev(rig.samples[v], full.Row(v)))
	}
	e.addCheck("served logits vs full-graph forward", worst, 1e-9,
		fmt.Sprintf("%d sampled vertices", len(verts)))
	return nil
}

// saturate runs a closed loop: serveSatClients callers each send their next
// query as soon as the previous one returns, until n queries have been
// sent. It returns the queries answered per second and how many failed.
func (s *serveRig) saturate(n int) (float64, int) {
	qs := s.schedule(1, n) // the hot/uniform mix; arrival times are unused
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveSatClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				if _, _, err := s.eng.PredictTraced(context.Background(), []int{qs[i].vertex}, ""); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	bad := int(failed.Load())
	return float64(n-bad) / time.Since(start).Seconds(), bad
}

// medianPhase summarizes rounds of one rate by the median of each
// statistic across them.
func medianPhase(ps []phaseResult) phaseResult {
	m := phaseResult{Rate: ps[0].Rate}
	var p50, p99, lag []float64
	for _, p := range ps {
		m.N += p.N
		m.Refused += p.Refused
		m.Errors += p.Errors
		p50, p99, lag = append(p50, p.P50), append(p99, p.P99), append(lag, p.LagP99)
	}
	m.P50, m.P99, m.LagP99 = median(p50), median(p99), median(lag)
	return m
}
