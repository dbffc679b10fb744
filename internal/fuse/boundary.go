package fuse

import "agnn/internal/tensor"

// The compile body (plan.go) and the op bodies (ops.go, attn.go) are
// written once over the element type E of the plan's buffers; Compile
// instantiates them for float64 or float32. Only three things depend on
// the width: the softmax exponential (expFn), the f32 plan boundary in
// this file (round the input in, refresh the parameter shadows, flush the
// gradients, widen the output) and the refusals f32 plans keep (semiring
// aggregation, aux inputs and Partition).

// executor is the width-specific half of a compiled plan: the buffers the
// op closures run over and the boundary between them and the caller's
// float64 tensors.
type executor interface {
	bind(h *tensor.Dense)               // input in, before the forward op list
	bindAux(id string, h *tensor.Dense) // aux input in (f64 plans only)
	result() *tensor.Dense              // forward output, after the forward op list
	seed(g *tensor.Dense)               // zeroed cotangents and the output cotangent in
	inputGrad() *tensor.Dense           // input cotangent, after the backward op list
	release(ws *tensor.Arena)
}

// exec holds a plan's buffers at element width E. f64 plans bind the
// caller's input, aux inputs and parameter Value/Grad storage by
// reference and hand out views of their own output and input-cotangent
// buffers. f32 plans round the input and the parameter shadows in on every
// Forward, flush the gradient shadows into the f64 Grad accumulators
// (Grad[i] += shadow[i], preserving the accumulate semantics across layers
// and steps) after every Backward, and widen results into f64 buffers.
type exec[E tensor.Float] struct {
	in, out *buf[E]
	inRef   *[]float64            // f64: in.dense, rebound by every Forward
	auxRefs map[string]*[]float64 // f64: aux inputs' dense, rebound by BindDense
	params  []paramShadow[E]      // f32: parameter shadows and their f64 masters
	zero    [][]E                 // cotangent buffers zeroed before each backward
	outD    *tensor.Dense         // what Forward returns
	ginD    *tensor.Dense         // what Backward returns (training plans)

	held   [][]E // everything acquired from the workspace, for release
	held64 [][]float64
}

type paramShadow[E tensor.Float] struct {
	ref ParamRef
	b   *buf[E]
}

func narrow[E tensor.Float]() bool { return tensor.DTypeOf[E]() == tensor.F32 }

// round copies src into dst at width E.
func round[E tensor.Float](dst []E, src []float64) {
	for i, v := range src {
		dst[i] = E(v)
	}
}

func (x *exec[E]) bind(h *tensor.Dense) {
	if !narrow[E]() {
		*x.inRef = h.Data
		return
	}
	round(x.in.dense, h.Data)
	for _, p := range x.params {
		round(p.b.dense, p.ref.Value.Data)
	}
}

func (x *exec[E]) bindAux(id string, h *tensor.Dense) { *x.auxRefs[id] = h.Data }

func (x *exec[E]) result() *tensor.Dense {
	if narrow[E]() {
		for i, v := range x.out.dense {
			x.outD.Data[i] = float64(v)
		}
	}
	return x.outD
}

func (x *exec[E]) seed(g *tensor.Dense) {
	for _, z := range x.zero {
		clear(z)
	}
	round(x.out.gdense, g.Data)
}

func (x *exec[E]) inputGrad() *tensor.Dense {
	if narrow[E]() {
		for _, p := range x.params {
			grad := p.ref.Grad.Data
			for i, v := range p.b.grad {
				grad[i] += float64(v)
			}
		}
		for i, v := range x.in.gdense {
			x.ginD.Data[i] = float64(v)
		}
	}
	return x.ginD
}

func (x *exec[E]) release(ws *tensor.Arena) {
	for _, s := range x.held {
		tensor.Release(ws, s)
	}
	for _, s := range x.held64 {
		tensor.Release(ws, s)
	}
	x.held, x.held64 = nil, nil
}
