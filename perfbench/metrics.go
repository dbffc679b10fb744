package main

import (
	"fmt"
	"sort"

	"agnn/internal/obs/metrics"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run (--trace 0), reported by
// every workload. metrics.json says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"step_s_p50", "s"},
	{"step_s_tail", "s"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// fuseOps are the op classes whose per-step time is reported, the fused
// attention sweep first.
var fuseOps = []string{"fused-attn", "mm", "matvec", "rownorm", "sigma"}

// traceLayers are the layers whose self time the traced run reports.
var traceLayers = []string{"bench", "distgnn", "gnn", "loadgen", "serving"}

// perLayer are the metrics of a traced run (--trace 1). Every workload
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"graph.build_s", "s"}, {"graph.nnz", "count"}, {"graph.max_degree", "count"},
		{"tensor.arena_peak_bytes", "B"},
		{"fuse.first_forward_s", "s"},
	}
	for _, op := range fuseOps {
		ms = append(ms, metricDef{"fuse.op_s." + op, "s"})
	}
	ms = append(ms,
		metricDef{"fuse.gf_per_s", "GF/s"}, metricDef{"fuse.flops_per_step", "count"},
		metricDef{"fuse.bytes_per_edge", "B"},
		metricDef{"fuse.plancache.hit_ratio", "1"}, metricDef{"fuse.plancache.misses", "count"},
		metricDef{"fuse.plancache.evictions", "count"}, metricDef{"fuse.plancache.bytes", "B"},
	)
	for i := 0; i < 3; i++ {
		ms = append(ms, metricDef{fmt.Sprintf("gnn.layer%d.forward_s", i), "s"})
	}
	for _, ph := range gridPhases {
		ms = append(ms, metricDef{ph + "_s", "s"}, metricDef{ph + "_s.max", "s"})
	}
	ms = append(ms,
		metricDef{"distgnn.epoch_s.rank_max", "s"},
		metricDef{"dist.bytes_per_epoch", "B"}, metricDef{"dist.msgs_per_epoch", "count"},
		metricDef{"dist.rounds_per_epoch", "count"}, metricDef{"dist.comm_ratio", "1"},
		metricDef{"dist.wait_s_per_epoch", "s"}, metricDef{"dist.wait_imbalance", "1"},
		metricDef{"net.bootstrap_s", "s"}, metricDef{"net.bytes_tx_per_epoch", "B"},
		metricDef{"net.frames_tx_per_epoch", "count"}, metricDef{"net.write_busy_s_per_epoch", "s"},
		metricDef{"net.wire_ratio", "1"}, metricDef{"net.reconnects", "count"},
		metricDef{"net.dial_retries", "count"},
		metricDef{"ckpt.save_s_mean", "s"}, metricDef{"ckpt.bytes", "B"},
		metricDef{"serve.p50_s.low", "s"}, metricDef{"serve.p99_s.low", "s"},
		metricDef{"serve.max_qps", "1/s"},
		metricDef{"serving.queue_s_p99", "s"}, metricDef{"serving.batch_wait_s_p50", "s"},
		metricDef{"serving.expand_s_p50", "s"}, metricDef{"serving.plan_s_p50", "s"},
		metricDef{"serving.plan_s_p99", "s"}, metricDef{"serving.batch_seeds_mean", "count"},
		metricDef{"serving.rejected", "count"}, metricDef{"loadgen.lag_s_p99", "s"},
		metricDef{"trace.coverage", "1"}, metricDef{"trace.overhead_frac", "1"},
	)
	for _, l := range traceLayers {
		ms = append(ms, metricDef{"trace.self_s." + l, "s"})
	}
	return ms
}()

var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[m.Name] = m.Unit
	}
	return u
}()

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not listed in metrics.go")
	}
	return u
}

// opRow is one compiled-plan op class per step.
type opRow struct {
	Name    string  `json:"op"`
	Seconds float64 `json:"seconds"` // measured op wall time per step
	Flops   float64 `json:"flops"`   // static flop model per step
	Bytes   float64 `json:"bytes"`   // static byte model per step
}

// reportFuse derives the compiled plans' per-op times and the static
// flop/byte model per step from two registry snapshots taken around the
// timed steps.
func (e *env) reportFuse(before, after *metrics.Snapshot, steps, edges int) {
	fb, fa := before.CounterFamily("agnn_op_flops_total"), after.CounterFamily("agnn_op_flops_total")
	bb, ba := before.CounterFamily("agnn_op_bytes_total"), after.CounterFamily("agnn_op_bytes_total")
	secs := func(s *metrics.Snapshot, op string) float64 {
		for _, h := range s.Histograms {
			if h.Name == "agnn_plan_op_seconds" && h.LabelValue == op {
				return h.Sum
			}
		}
		return 0
	}
	var ops []opRow
	var totF, totB, totS float64
	n := float64(max(steps, 1))
	for op := range fa {
		row := opRow{Name: op, Seconds: (secs(after, op) - secs(before, op)) / n,
			Flops: float64(fa[op]-fb[op]) / n, Bytes: float64(ba[op]-bb[op]) / n}
		if row.Seconds <= 0 && row.Flops <= 0 {
			continue
		}
		ops = append(ops, row)
		totF += row.Flops
		totB += row.Bytes
		totS += row.Seconds
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Seconds > ops[j].Seconds })
	for _, r := range ops {
		if _, ok := units["fuse.op_s."+r.Name]; ok {
			e.setLayer("fuse.op_s."+r.Name, r.Seconds)
		}
	}
	e.detail["fuse_ops"] = ops
	hits := counterDelta(before, after, "agnn_plancache_hits")
	misses := counterDelta(before, after, "agnn_plancache_misses")
	if hits+misses > 0 {
		e.setLayer("fuse.plancache.hit_ratio", float64(hits)/float64(hits+misses))
	}
	e.setLayer("fuse.plancache.misses", float64(misses))
	e.setLayer("fuse.plancache.evictions", float64(counterDelta(before, after, "agnn_plancache_evictions")))
	e.setLayer("fuse.plancache.bytes", metrics.PlanCacheBytes.Value())
	e.setLayer("fuse.flops_per_step", totF)
	if totS > 0 {
		e.setLayer("fuse.gf_per_s", totF/totS/1e9)
	}
	// Computed from the plans' static byte model, not measured traffic.
	e.setLayer("fuse.bytes_per_edge", totB/float64(max(edges, 1)))
}

// counterDelta is the change of an unlabelled counter between snapshots.
func counterDelta(before, after *metrics.Snapshot, name string) int64 {
	a, _ := after.Counter(name, "")
	b, _ := before.Counter(name, "")
	return a - b
}
