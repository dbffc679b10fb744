package main

import (
	"testing"
)

// Tiny shapes keep the self-check to seconds; the counts it compares do
// not depend on size.
var (
	tinyTrain = shape{Scale: 8, EdgeFactor: 4, K: 8, Layers: 2}
	tinyInfer = shape{Scale: 9, EdgeFactor: 4, K: 8, Layers: 2}
	tinyServe = shape{Scale: 7, EdgeFactor: 3, K: 4, Layers: 2}
)

// exactCounts are the per-layer metrics that must repeat exactly for one
// seed: graph identity, communication counts and the static flop model.
var exactCounts = map[string][]string{
	"train-grid": {"graph.nnz", "graph.max_degree", "dist.bytes_per_epoch", "dist.msgs_per_epoch", "dist.rounds_per_epoch"},
	"train-tcp":  {"graph.nnz", "graph.max_degree", "dist.bytes_per_epoch", "dist.msgs_per_epoch", "dist.rounds_per_epoch"},
	"infer-f32":  {"graph.nnz", "graph.max_degree", "fuse.flops_per_step", "fuse.bytes_per_edge"},
}

func runTiny(t *testing.T, name string, seed int64) *env {
	t.Helper()
	e := newEnv(seed, 0.05, true, t.TempDir())
	var err error
	switch name {
	case "train-grid":
		err = runTrainGrid(e, tinyTrain)
	case "train-tcp":
		err = runTrainTCP(e, tinyTrain)
	case "infer-f32":
		err = runInferF32(e, tinyInfer)
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if e.failed != 0 {
		t.Fatalf("%s seed %d: correctness checks failed: %+v", name, seed, e.checks)
	}
	return e
}

// TestCountsRepeatForOneSeed: two runs with one seed report identical
// counts, so a change in them between commits is the program's doing.
func TestCountsRepeatForOneSeed(t *testing.T) {
	for name, keys := range exactCounts {
		a, b := runTiny(t, name, 7), runTiny(t, name, 7)
		for _, k := range keys {
			va, okA := a.layer[k]
			vb, okB := b.layer[k]
			if !okA || !okB {
				t.Errorf("%s: %s not reported", name, k)
				continue
			}
			if va.Value != vb.Value {
				t.Errorf("%s: %s = %v then %v for the same seed", name, k, va.Value, vb.Value)
			}
		}
	}
}

// TestSeedChangesInputs: another seed generates another graph, and one
// seed always generates the same one.
func TestSeedChangesInputs(t *testing.T) {
	for _, sh := range []shape{tinyTrain, tinyInfer, tinyServe} {
		a, b, c := sh.generate(1), sh.generate(1), sh.generate(2)
		if a.a.Fingerprint() != b.a.Fingerprint() {
			t.Errorf("%+v: seed 1 generated two different graphs", sh)
		}
		if a.a.Fingerprint() == c.a.Fingerprint() {
			t.Errorf("%+v: seeds 1 and 2 generated the same graph", sh)
		}
	}
}

// TestServeTinyRun: the serving workload completes on a tiny graph with
// its correctness check passing and every end-to-end metric reported.
func TestServeTinyRun(t *testing.T) {
	e := newEnv(3, 0.4, false, t.TempDir())
	if err := runServeEgo(e, tinyServe); err != nil {
		t.Fatal(err)
	}
	if len(e.checks) != 1 || !e.checks[0].OK {
		t.Fatalf("checks: %+v", e.checks)
	}
	for _, k := range []string{"setup_s", "step_s_p50", "step_s_tail", "ops_per_s", "peak_rss_mb"} {
		if v, ok := e.e2e[k]; !ok || v.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value", k, v)
		}
	}
}

func TestUnionWithin(t *testing.T) {
	ss := []span{{Start: 0, End: 4}, {Start: 2, End: 6}, {Start: 8, End: 9}, {Start: 20, End: 30}}
	if got := unionWithin(ss, 1, 10); got != 6 {
		t.Fatalf("union = %d, want 6", got)
	}
	if got := unionWithin(nil, 0, 10); got != 0 {
		t.Fatalf("empty union = %d", got)
	}
}
