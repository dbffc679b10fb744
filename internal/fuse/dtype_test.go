package fuse_test

import (
	"fmt"
	"math/rand"
	"testing"

	"agnn/internal/fuse"
	"agnn/internal/par"
	"agnn/internal/tensor"
)

// modelBuilds returns graph constructors for the three attention models
// over one fixed weighted pattern, sharing parameters across builds.
func modelBuilds(rng *rand.Rand, k int) (nnz int, builds []struct {
	name  string
	build func() *fuse.Graph
}) {
	a := weightedGraph(40, 160, 91)
	w := randParam(rng, "W", k, k)
	beta := randParam(rng, "beta", 1, 1)
	a1 := randParam(rng, "a1", k, 1)
	a2 := randParam(rng, "a2", k, 1)
	builds = []struct {
		name  string
		build func() *fuse.Graph
	}{
		{"va", func() *fuse.Graph { return buildVA(a, w, k) }},
		{"agnn", func() *fuse.Graph { return buildAGNN(a, w, beta, k) }},
		{"gat", func() *fuse.Graph { return buildGAT(a, w, a1, a2, k, 0.2) }},
	}
	return a.NNZ(), builds
}

// TestPlanWorkspaceWordsPinned pins the workspace each plan holds. f64
// plans bind the caller's input, aux inputs and parameter storage by
// reference, so they hold no shadow copies; f32 plans hold the rounded
// input, the parameter and gradient shadows, the f32 adjacency values and
// the two f64 boundary buffers (counted at twice their length).
func TestPlanWorkspaceWordsPinned(t *testing.T) {
	_, builds := modelBuilds(rand.New(rand.NewSource(90)), 5)
	want := map[string]int64{
		"va/f64/infer": 600, "va/f64/train": 2680, "va/f32/infer": 1545, "va/f32/train": 4050,
		"agnn/f64/infer": 640, "agnn/f64/train": 4040, "agnn/f32/infer": 1586, "agnn/f32/train": 5412,
		"gat/f64/infer": 680, "gat/f64/train": 4120, "gat/f32/infer": 1315, "gat/f32/train": 5190,
	}
	for _, b := range builds {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			for _, train := range []bool{false, true} {
				mode := "infer"
				if train {
					mode = "train"
				}
				name := fmt.Sprintf("%s/%v/%s", b.name, dt, mode)
				st := b.build().MustCompile(fuse.Options{DType: dt, Train: train}).Stats()
				if st.WorkspaceWords != want[name] {
					t.Errorf("%s: WorkspaceWords = %d, want %d", name, st.WorkspaceWords, want[name])
				}
			}
		}
	}
}

// TestFusedAttnBytesFollowPlanMode: the fused-attention byte estimate
// counts the training plan's score write and nothing else, whatever the
// graph was compiled for before.
func TestFusedAttnBytesFollowPlanMode(t *testing.T) {
	nnz, builds := modelBuilds(rand.New(rand.NewSource(90)), 5)
	for _, b := range builds {
		for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
			fresh := b.build().MustCompile(fuse.Options{DType: dt}).Stats().ForwardBytes

			g := b.build()
			train := g.MustCompile(fuse.Options{DType: dt, Train: true}).Stats().ForwardBytes
			again := g.MustCompile(fuse.Options{DType: dt}).Stats().ForwardBytes

			if again != fresh {
				t.Errorf("%s/%v: inference ForwardBytes %d after a training compile, %d on a fresh graph",
					b.name, dt, again, fresh)
			}
			if d, want := train-fresh, dt.Size()*int64(nnz); d != want {
				t.Errorf("%s/%v: train-infer ForwardBytes = %d, want %d (one score write per edge)",
					b.name, dt, d, want)
			}
		}
	}
}

// TestAttnFusedWorkerCounts runs fused AGNN inference at several worker
// counts: the per-worker score scratch must be set up without racing, and
// since every row is swept by one worker in a fixed order the outputs must
// be bitwise-equal.
func TestAttnFusedWorkerCounts(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)

	rng := rand.New(rand.NewSource(6))
	a := weightedGraph(2048, 16384, 6)
	const k = 16
	w := randParam(rng, "W", k, k)
	beta := randParam(rng, "beta", 1, 1)
	h := randDense(rng, a.Rows, k)

	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		var want *tensor.Dense
		for _, workers := range []int{1, 2, 4} {
			par.SetWorkers(workers)
			p := buildAGNN(a, w, beta, k).MustCompile(fuse.Options{DType: dt})
			if p.Stats().AttnFused == 0 {
				t.Fatalf("%v: inference plan did not fuse the attention chain", dt)
			}
			got := p.Forward(h).Clone()
			if want == nil {
				want = got
				continue
			}
			if d := got.MaxAbsDiff(want); d != 0 {
				t.Errorf("%v: %d workers deviate from 1 worker by %g, want bitwise equality", dt, workers, d)
			}
		}
	}
}
