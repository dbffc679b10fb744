package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"agnn/internal/ckpt"
	"agnn/internal/costmodel"
	distnet "agnn/internal/dist/net"
	"agnn/internal/distgnn"
	"agnn/internal/gnn"
	"agnn/internal/obs/metrics"
)

// train-tcp: GAT training with 2 ranks in one process, each on its own
// loopback TCP endpoint, through distgnn.TrainWorker, checkpointing every
// epoch. At p=2 this is the 1D local engine over one connection.
const (
	tcpRanks      = 2
	tcpLR         = 0.05
	tcpPilot      = 2 // epochs of the set-up run that sizes the timed run
	tcpCheckEpoch = 3 // epochs compared against the in-process twin
)

// tcpOpt wraps one rank's optimizer: it records when each Step ends, and
// in a traced run each Step is a gnn.opt_step span.
type tcpOpt struct {
	gnn.StatefulOptimizer
	rank  int
	tr    *tracer
	ends  *[]time.Time
	epoch int64
}

func (o *tcpOpt) Step(ps []*gnn.Param) {
	id := o.tr.begin("gnn.opt_step", -1, o.epoch, o.rank)
	o.StatefulOptimizer.Step(ps)
	o.tr.end(id)
	*o.ends = append(*o.ends, time.Now())
	o.epoch++
}

// tcpRun is one TrainWorker world: both ranks bootstrapped over loopback.
type tcpRun struct {
	bootstrapS float64
	loopStart  time.Time             // when both ranks had built their engines
	epochEnd   []time.Time           // rank-0 OnEpoch times
	stepEnd    [tcpRanks][]time.Time // per-rank optimizer Step ends
	losses     []float64
	wire       []distnet.WireStats
	res        *distgnn.TrainResult
}

// runWorld bootstraps a loopback world and trains it to `epochs`, resuming
// from the checkpoint in dir when there is one.
func runWorld(in inputs, cfg gnn.Config, dir string, epochs int, tr *tracer) (*tcpRun, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rdv := ln.Addr().String()
	ln.Close()

	run := &tcpRun{wire: make([]distnet.WireStats, tcpRanks)}
	eps := make([]*distnet.TCPEndpoint, tcpRanks)
	errs := make([]error, tcpRanks)
	var wg sync.WaitGroup
	t0 := time.Now()
	for r := 0; r < tcpRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = distnet.DialTCP(distnet.TCPConfig{Rank: r, Size: tcpRanks, Rendezvous: rdv})
		}(r)
	}
	wg.Wait()
	run.bootstrapS = time.Since(t0).Seconds()
	defer func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	}()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d bootstrap: %w", r, err)
		}
	}

	var mu sync.Mutex
	started := 0
	mark := func(int) {
		mu.Lock()
		defer mu.Unlock()
		if started++; started == tcpRanks {
			run.loopStart = time.Now()
		}
	}
	results := make([]*distgnn.TrainResult, tcpRanks)
	for r := 0; r < tcpRanks; r++ {
		spec := distgnn.TrainSpec{
			A: in.a, X: in.h, Labels: in.labels, Cfg: cfg, Epochs: epochs,
			CheckpointDir: dir, CheckpointEvery: 1, Resume: true,
		}
		r := r
		first := true
		spec.NewOpt = func() gnn.StatefulOptimizer {
			// Called by each rank once its engine is built, just before
			// the first epoch.
			if first {
				first = false
				mark(r)
			}
			return &tcpOpt{StatefulOptimizer: gnn.NewSGD(tcpLR, 0), rank: r, tr: tr, ends: &run.stepEnd[r]}
		}
		if r == 0 {
			spec.OnEpoch = func(ep int, loss float64) {
				mu.Lock()
				run.epochEnd = append(run.epochEnd, time.Now())
				run.losses = append(run.losses, loss)
				mu.Unlock()
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = distgnn.TrainWorker(spec, eps[r])
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	for r, ep := range eps {
		run.wire[r] = ep.WireStats()
	}
	run.res = results[0]
	return run, nil
}

// epochTimes returns the wall time of every epoch the run trained: the
// first from the start of the epoch loop, the rest between OnEpoch calls.
func (r *tcpRun) epochTimes() []float64 {
	var ts []float64
	prev := r.loopStart
	for _, t := range r.epochEnd {
		ts = append(ts, t.Sub(prev).Seconds())
		prev = t
	}
	return ts
}

func runTrainTCP(e *env, sh shape) error {
	start := time.Now()
	in := sh.generate(e.seed)
	in.report(e)
	cfg := sh.config(gnn.GAT, e.seed)
	dir, err := os.MkdirTemp(e.outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set-up: a pilot world trains the first epochs and checkpoints them;
	// its epoch time sizes the timed world, which resumes from there.
	pilot, err := runWorld(in, cfg, dir, tcpPilot, nil)
	if err != nil {
		return fmt.Errorf("pilot: %w", err)
	}
	per := median(pilot.epochTimes()[1:])
	nPhases := 1
	if e.trace {
		nPhases = 2
	}
	perPhase := 1 + int(math.Max(3, math.Min(400, math.Round(e.seconds/float64(nPhases)/per))))
	if e.setupOnly {
		perPhase = 1 // set-up ends with the timed world's first epoch
	}
	losses := append([]float64(nil), pilot.losses...)

	var timed []*tcpRun
	var setupS float64
	done := tcpPilot
	before := metrics.Default.Snapshot()
	ckpt0 := metrics.CheckpointSeconds.Sum()
	ckptN0 := metrics.CheckpointSeconds.Count()
	for p := 0; p < nPhases; p++ {
		var tr *tracer
		if p == 1 {
			e.spans = newTracer()
			tr = e.spans
		}
		done += perPhase
		run, err := runWorld(in, cfg, dir, done, tr)
		if err != nil {
			return err
		}
		if p == 0 {
			// The timed world's first epoch warms its fresh engine up.
			setupS = run.epochEnd[0].Sub(start).Seconds()
			if e.setupOnly {
				e.setE2E("setup_s", setupS)
				return nil
			}
		}
		losses = append(losses, run.losses...)
		timed = append(timed, run)
	}
	rss := peakRSSMB()
	after := metrics.Default.Snapshot()

	run := timed[0]
	ts := run.epochTimes()[1:]
	wall := run.epochEnd[len(run.epochEnd)-1].Sub(run.epochEnd[0]).Seconds()
	e.attempted += tcpPilot + perPhase*nPhases
	e.setClosedLoop("epoch", setupS, rss, ts, wall, in.stats.M)

	last := timed[len(timed)-1]
	ep := float64(len(last.epochEnd))
	var tx, frames, writeNs, reconnects, retries uint64
	for _, w := range last.wire {
		tx = max(tx, w.BytesTx)
		frames = max(frames, w.FramesTx)
		writeNs = max(writeNs, w.WriteNanos)
		reconnects += w.Reconnects
		retries += w.DialRetries
	}
	e.setLayer("net.bootstrap_s", run.bootstrapS)
	e.setLayer("net.bytes_tx_per_epoch", float64(tx)/ep)
	e.setLayer("net.frames_tx_per_epoch", float64(frames)/ep)
	e.setLayer("net.write_busy_s_per_epoch", float64(writeNs)/1e9/ep)
	v := costmodel.ValidateWire(costmodel.DefaultWireModel(), int64(frames), int64(tx), float64(writeNs)/1e9)
	e.setLayer("net.wire_ratio", v.Ratio)
	e.setLayer("net.reconnects", float64(reconnects))
	e.setLayer("net.dial_retries", float64(retries))
	rankMax := 0.0
	for r := range last.stepEnd {
		var gaps []float64
		for i := 1; i < len(last.stepEnd[r]); i++ {
			gaps = append(gaps, last.stepEnd[r][i].Sub(last.stepEnd[r][i-1]).Seconds())
		}
		rankMax = max(rankMax, median(gaps))
	}
	e.setLayer("distgnn.epoch_s.rank_max", rankMax)
	// Data traffic per epoch, exact: both worlds pay the same set-up
	// traffic, so the difference between them is epoch traffic only.
	if dE := len(last.epochEnd) - len(pilot.epochEnd); dE > 0 {
		c, c0 := last.res.Counters[0], pilot.res.Counters[0]
		e.setLayer("dist.bytes_per_epoch", float64(c.BytesSent-c0.BytesSent)/float64(dE))
		e.setLayer("dist.msgs_per_epoch", float64(c.MsgsSent-c0.MsgsSent)/float64(dE))
		e.setLayer("dist.rounds_per_epoch", float64(c.Rounds-c0.Rounds)/float64(dE))
		predicted := float64(sh.Layers) * costmodel.LocalVolume(in.stats.N, sh.K, in.stats.MaxDeg, tcpRanks)
		e.setLayer("dist.comm_ratio", costmodel.ValidateComm(predicted, float64(c.BytesSent-c0.BytesSent)/8/float64(dE)).Ratio)
	}
	if n := metrics.CheckpointSeconds.Count() - ckptN0; n > 0 {
		e.setLayer("ckpt.save_s_mean", (metrics.CheckpointSeconds.Sum()-ckpt0)/float64(n))
	}
	if path, _, ok, err := ckpt.Latest(dir); err == nil && ok {
		if fi, err := os.Stat(path); err == nil {
			e.setLayer("ckpt.bytes", float64(fi.Size()))
		}
	}
	e.setLayer("tensor.arena_peak_bytes", metrics.ArenaPeakBytes.Value())
	e.reportFuse(before, after, perPhase*nPhases, in.stats.M)
	if e.trace {
		e.setLayer("trace.overhead_frac", median(timed[1].epochTimes()[1:])/median(ts)-1)
		// Epoch spans come from rank 0's OnEpoch times; each adopts the
		// optimizer spans of its epoch.
		for i, t := range last.epochEnd {
			prev := last.loopStart
			if i > 0 {
				prev = last.epochEnd[i-1]
			}
			root := e.spans.record("epoch", -1, int64(i), 0, prev, t)
			e.spans.adopt(root, "gnn.opt_step", int64(i))
		}
		_, worst := spanMeans(e.spans, "gnn.opt_step", tcpRanks)
		e.setLayer("gnn.opt_step_s.max", worst)
	}

	// Correctness, after timing: the first epochs' losses, bitwise, against
	// an in-process TrainResilient twin of the same job.
	twin, err := distgnn.TrainResilient(distgnn.TrainSpec{P: tcpRanks, A: in.a, X: in.h,
		Labels: in.labels, Cfg: cfg, Epochs: tcpCheckEpoch,
		NewOpt: func() gnn.StatefulOptimizer { return gnn.NewSGD(tcpLR, 0) }})
	if err != nil {
		return err
	}
	mismatch := 0
	for i, want := range twin.Losses {
		if losses[i] != want {
			mismatch++
		}
	}
	e.addCheck("tcp losses vs in-process TrainResilient (bitwise)", float64(mismatch), 0,
		fmt.Sprintf("first %d epochs, %d differ", tcpCheckEpoch, mismatch))
	return nil
}
