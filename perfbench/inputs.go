package main

import (
	"math/rand"
	"time"

	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// shape is a workload's input size: a Kronecker graph of 2^Scale vertices
// with about EdgeFactor·2^Scale undirected edges, K features per vertex and
// a Layers-deep model.
type shape struct {
	Scale      int
	EdgeFactor float64
	K, Layers  int
}

// The workloads' shapes. Each was sized on a 2-core machine so that one
// run's timed loop holds dozens of steps: on a shared host, runs of a few
// long steps (a 2^16-vertex grid epoch, a 2^17-vertex forward) spread by
// more than the benchmark's bounds from one run to the next.
var (
	gridShape  = shape{Scale: 14, EdgeFactor: 7.4, K: 32, Layers: 3}
	inferShape = shape{Scale: 14, EdgeFactor: 16, K: 32, Layers: 3}
	serveShape = shape{Scale: 11, EdgeFactor: 4, K: 16, Layers: 2}
	tcpShape   = shape{Scale: 14, EdgeFactor: 40, K: 32, Layers: 2}
)

// inputs are the generated inputs of a workload: the graph, features and
// labels, all drawn from the workload seed.
type inputs struct {
	a      *sparse.CSR
	h      *tensor.Dense
	labels []int
	stats  graph.Stats
	buildS float64
}

func (s shape) generate(seed int64) inputs {
	t0 := time.Now()
	a := graph.Kronecker(s.Scale, s.EdgeFactor, seed)
	build := time.Since(t0).Seconds()
	rng := rand.New(rand.NewSource(seed + 1))
	h := tensor.RandN(a.Rows, s.K, 0.5, rng)
	labels := make([]int, a.Rows)
	for i := range labels {
		labels[i] = rng.Intn(s.K)
	}
	return inputs{a: a, h: h, labels: labels, stats: graph.Summarize(a), buildS: build}
}

// config is the model of a workload: K features in, hidden and out.
func (s shape) config(kind gnn.Kind, seed int64) gnn.Config {
	return gnn.Config{Model: kind, Layers: s.Layers, InDim: s.K, HiddenDim: s.K, OutDim: s.K,
		Activation: gnn.ReLU(), SelfLoops: true, Seed: seed}
}

// report records the graph layer's metrics.
func (in inputs) report(e *env) {
	e.setLayer("graph.build_s", in.buildS)
	e.setLayer("graph.nnz", float64(in.stats.M))
	e.setLayer("graph.max_degree", float64(in.stats.MaxDeg))
	e.detail["graph"] = map[string]any{"n": in.stats.N, "nnz": in.stats.M, "max_degree": in.stats.MaxDeg}
}
