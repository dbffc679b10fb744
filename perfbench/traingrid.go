package main

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"agnn/internal/costmodel"
	"agnn/internal/dist"
	"agnn/internal/distgnn"
	"agnn/internal/gnn"
	"agnn/internal/obs/metrics"
	"agnn/internal/tensor"
)

// train-grid: full-batch GAT training on the 1.5D grid engine, p=4
// in-process ranks over the channel world, f64, SGD.
const (
	gridRanks      = 4
	gridLR         = 0.05
	gridCheckEpoch = 2 // epochs compared against the single-rank model
)

// gridPhases are the calls one training epoch makes into the engine, in
// order; each is a span in the traced run.
var gridPhases = []string{"distgnn.zero_grad", "distgnn.forward", "distgnn.eval_loss",
	"distgnn.backward", "distgnn.allreduce_grads", "gnn.opt_step"}

// rankCounts are one rank's registry readings, taken by the rank itself so
// they never race with its own sends.
type rankCounts struct {
	bytes, msgs, rounds int64
	waitS               float64
}

func readRankCounts(rank int) rankCounts {
	r := strconv.Itoa(rank)
	return rankCounts{
		bytes:  metrics.CommBytesTotal.With(r).Value(),
		msgs:   metrics.CommMsgsTotal.With(r).Value(),
		rounds: metrics.CommRoundsTotal.With(r).Value(),
		waitS:  metrics.RankWaitSeconds.With(r).Sum(),
	}
}

func (c rankCounts) minus(o rankCounts) rankCounts {
	return rankCounts{c.bytes - o.bytes, c.msgs - o.msgs, c.rounds - o.rounds, c.waitS - o.waitS}
}

// gridPhase is what one rank measured over one timed phase.
type gridPhase struct {
	epochs []float64 // rank-local epoch wall times
	wall   float64
	counts rankCounts
}

func runTrainGrid(e *env, sh shape) error {
	start := time.Now()
	in := sh.generate(e.seed)
	in.report(e)
	cfg := sh.config(gnn.GAT, e.seed)

	var mu sync.Mutex
	var setupS float64
	losses := make([]float64, 0, 64)
	phases := make([][gridRanks]gridPhase, 2) // [untraced, traced][rank]
	var before, after *metrics.Snapshot
	nPhases := 1
	if e.trace {
		nPhases = 2
		e.spans = newTracer()
	}
	_, errs, err := dist.TryRun(gridRanks, dist.Options{RecvTimeout: 120 * time.Second}, func(c *dist.Comm) error {
		eng, err := distgnn.NewGlobalEngine(c, in.a, cfg)
		if err != nil {
			return err
		}
		xd := eng.SliceOwnedBlock(in.h)
		opt := gnn.NewSGD(gridLR, 0)
		step := int64(0)
		epoch := func(tr *tracer) float64 {
			t0 := time.Now()
			root := tr.begin("epoch", -1, step, c.Rank())
			var out, g *tensor.Dense
			var loss float64
			for _, ph := range gridPhases {
				id := tr.begin(ph, root, step, c.Rank())
				switch ph {
				case "distgnn.zero_grad":
					eng.ZeroGrad()
				case "distgnn.forward":
					out = eng.Forward(xd, true)
				case "distgnn.eval_loss":
					loss, g = eng.EvalLoss(out, in.labels, nil)
				case "distgnn.backward":
					eng.Backward(g)
				case "distgnn.allreduce_grads":
					eng.AllreduceGrads()
				case "gnn.opt_step":
					opt.Step(eng.Params())
				}
				tr.end(id)
			}
			tr.end(root)
			if c.Rank() == 0 {
				mu.Lock()
				losses = append(losses, loss)
				mu.Unlock()
			}
			step++
			return time.Since(t0).Seconds()
		}
		// Warm-up epoch (part of set-up), then agree on the epoch count
		// of each timed phase from the ranks' mean warm-up time.
		warm := epoch(nil)
		warm = c.Allreduce([]float64{warm})[0] / float64(gridRanks) // mean over ranks
		perPhase := e.seconds / float64(nPhases)
		n := int(math.Max(3, math.Min(400, math.Round(perPhase/warm))))
		c.Barrier()
		if c.Rank() == 0 {
			mu.Lock()
			setupS = time.Since(start).Seconds()
			before = metrics.Default.Snapshot()
			mu.Unlock()
		}
		if e.setupOnly {
			return nil
		}
		for p := 0; p < nPhases; p++ {
			var tr *tracer
			if p == 1 {
				tr = e.spans
			}
			before := readRankCounts(c.Rank())
			t0 := time.Now()
			var ph gridPhase
			for i := 0; i < n; i++ {
				ph.epochs = append(ph.epochs, epoch(tr))
			}
			ph.wall = time.Since(t0).Seconds()
			ph.counts = readRankCounts(c.Rank()).minus(before)
			mu.Lock()
			phases[p][c.Rank()] = ph
			mu.Unlock()
			c.Barrier()
		}
		if c.Rank() == 0 {
			mu.Lock()
			after = metrics.Default.Snapshot()
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := dist.FirstError(errs); err != nil {
		return err
	}
	if e.setupOnly {
		e.setE2E("setup_s", setupS)
		return nil
	}
	rss := peakRSSMB()

	// End-to-end metrics from the untraced phase (rank 0's clock).
	ph := phases[0][0]
	e.attempted += len(ph.epochs) * nPhases
	e.setClosedLoop("epoch", setupS, rss, ph.epochs, ph.wall, in.stats.M)

	// Communication counts per epoch, max over ranks (exact, repeatable).
	var maxC rankCounts
	waits := make([]float64, gridRanks)
	final := phases[nPhases-1]
	for r := 0; r < gridRanks; r++ {
		c := final[r].counts
		maxC.bytes = max(maxC.bytes, c.bytes)
		maxC.msgs = max(maxC.msgs, c.msgs)
		maxC.rounds = max(maxC.rounds, c.rounds)
		waits[r] = c.waitS / float64(len(final[r].epochs))
	}
	ep := float64(len(final[0].epochs))
	e.setLayer("dist.bytes_per_epoch", float64(maxC.bytes)/ep)
	e.setLayer("dist.msgs_per_epoch", float64(maxC.msgs)/ep)
	e.setLayer("dist.rounds_per_epoch", float64(maxC.rounds)/ep)
	predicted := float64(sh.Layers) * costmodel.GlobalVolume(in.stats.N, sh.K, gridRanks)
	e.setLayer("dist.comm_ratio", costmodel.ValidateComm(predicted, float64(maxC.bytes)/8/ep).Ratio)
	waitMax := 0.0
	for _, w := range waits {
		waitMax = max(waitMax, w)
	}
	e.setLayer("dist.wait_s_per_epoch", waitMax)
	e.setLayer("dist.wait_imbalance", waitMax/math.Max(mean(waits), 1e-12))
	e.setLayer("tensor.arena_peak_bytes", metrics.ArenaPeakBytes.Value())
	e.reportFuse(before, after, len(ph.epochs)*nPhases, in.stats.M)

	if e.trace {
		untraced, traced := phases[0][0], phases[1][0]
		e.setLayer("trace.overhead_frac", median(traced.epochs)/median(untraced.epochs)-1)
		for _, name := range gridPhases {
			rank0, worst := spanMeans(e.spans, name, gridRanks)
			m := name + "_s"
			e.setLayer(m, rank0)
			e.setLayer(m+".max", worst)
		}
	}

	// Correctness, after timing: the first epochs' losses against the
	// single-rank model trained from the same seed.
	ref, err := gnn.New(cfg, in.a)
	if err != nil {
		return err
	}
	want, err := ref.Train(in.h, &gnn.CrossEntropyLoss{Labels: in.labels}, gnn.NewSGD(gridLR, 0), gridCheckEpoch)
	if err != nil {
		return err
	}
	worst := 0.0
	for i, w := range want {
		worst = max(worst, math.Abs(losses[i]-w)/(1+math.Abs(w)))
	}
	e.addCheck("grid losses vs single-rank gnn.Model", worst, 1e-9,
		fmt.Sprintf("first %d epochs", gridCheckEpoch))
	return nil
}
