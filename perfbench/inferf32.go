package main

import (
	"fmt"
	"time"

	"agnn/internal/gnn"
	"agnn/internal/obs/metrics"
	"agnn/internal/tensor"
)

// infer-f32: single-rank AGNN inference through compiled f32 plans with the
// fused SDDMM+softmax+SpMM sweep. The graph outgrows a core's L2 cache but
// not the shared L3: graphs past the L3 made runs on a shared host spread
// by more than the benchmark's bounds.
func runInferF32(e *env, sh shape) error {
	start := time.Now()
	in := sh.generate(e.seed)
	in.report(e)
	a, h, st := in.a, in.h, in.stats
	cfg := sh.config(gnn.AGNN, e.seed)
	cfg.DType = tensor.F32
	model, err := gnn.New(cfg, a)
	if err != nil {
		return err
	}
	model.SetPlanInference(true)

	step := int64(0)
	forward := func(tr *tracer) *tensor.Dense {
		root := tr.begin("forward", -1, step, 0)
		x := h
		for i, l := range model.Layers {
			id := tr.begin(layerSpan[i], root, step, 0)
			x = l.Forward(x, false)
			tr.end(id)
		}
		tr.end(root)
		step++
		return x
	}
	t0 := time.Now()
	forward(nil) // compile + first run
	firstS := time.Since(t0).Seconds()
	setupS := time.Since(start).Seconds()
	if e.setupOnly {
		e.setE2E("setup_s", setupS)
		return nil
	}

	before := metrics.Default.Snapshot()
	var steps []float64
	loop := func(tr *tracer, seconds float64) []float64 {
		var ts []float64
		t0 := time.Now()
		for len(ts) < 3 || time.Since(t0).Seconds() < seconds {
			s := time.Now()
			forward(tr)
			ts = append(ts, time.Since(s).Seconds())
		}
		steps = append(steps, ts...)
		return ts
	}
	// A traced run times the loop untraced for half of --seconds, then
	// traced for the other half; the ratio is the tracing overhead.
	var timed []float64
	if !e.trace {
		timed = loop(nil, e.seconds)
	} else {
		plain := loop(nil, e.seconds/2)
		e.spans = newTracer()
		timed = loop(e.spans, e.seconds/2)
		e.setLayer("trace.overhead_frac", median(timed)/median(plain)-1)
	}
	after := metrics.Default.Snapshot()
	rss := peakRSSMB()

	e.attempted += len(steps)
	e.setClosedLoop("forward", setupS, rss, timed, sum(timed), st.M)

	e.setLayer("tensor.arena_peak_bytes", metrics.ArenaPeakBytes.Value())
	e.setLayer("fuse.first_forward_s", firstS)
	e.reportFuse(before, after, len(steps), st.M)
	if e.trace {
		for i := range model.Layers {
			mean, _ := spanMeans(e.spans, layerSpan[i], 1)
			e.setLayer(layerSpan[i]+"_s", mean)
		}
	}

	// Correctness, after timing: the f32 output against the f64 plans.
	got := forward(nil).Clone()
	cfg.DType = tensor.F64
	ref, err := gnn.New(cfg, a)
	if err != nil {
		return err
	}
	ref.SetPlanInference(true)
	want := ref.Forward(h, false)
	e.addCheck("f32 plan forward vs f64 plan forward", maxRelDev(got.Data, want.Data), 1e-5,
		fmt.Sprintf("%d×%d outputs", got.Rows, got.Cols))
	return nil
}

// layerSpan names the span around Model.Layers[i].Forward.
var layerSpan = func() []string {
	s := make([]string, 8)
	for i := range s {
		s[i] = fmt.Sprintf("gnn.layer%d.forward", i)
	}
	return s
}()
