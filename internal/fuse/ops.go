package fuse

import (
	"math"

	"agnn/internal/obs/flight"
	"agnn/internal/obs/metrics"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// This file contains the op bodies a compiled Plan executes, written once
// over the element type E of the plan's buffers (float64 or float32; Go
// compiles each width as its own instantiation). Every builder returns a
// func() whose loop body closures are created exactly once, at compile
// time: closure literals passed to par.Range escape to the heap when they
// are created, so building them per step would put one allocation per
// kernel on the hot path. With prebuilt bodies the steady-state
// forward/backward pass performs no allocations at all (the property the
// alloc-regression tests pin down). The loop shapes mirror the
// hand-written kernels in internal/kernels, internal/sparse and
// internal/tensor. Transcendentals other than the softmax exponential
// (sqrt, activations) evaluate through float64, which is exact for f64
// plans and costs f32 plans only register-width conversions.

// planOp is one executable step of a compiled plan. The metric handles and
// cost estimates are resolved at compile time so recording a step is a
// handful of atomic operations — nothing on the hot path allocates or
// locks (the property the alloc-regression tests pin down).
type planOp struct {
	span   string // obs span name, precomputed
	op     string // op vocabulary name, for Stats
	run    func()
	each   func(i int)        // per-row execution over the op's row domain (nil: row-indivisible)
	rows   int                // row-domain size for each (0: row-indivisible)
	lat    *metrics.Histogram // latency histogram for this op kind
	ops    *metrics.Counter   // executions of this op kind
	flopsC *metrics.Counter   // per-op-class flop counter (roofline numerator)
	bytesC *metrics.Counter   // per-op-class byte counter (roofline denominator)
	lane   *flight.Lane       // flight-recorder lane (process lane)
	fcode  uint32             // interned flight code for the span name
	flops  int64              // estimated flops per execution (Section 6 op counts)
	bytes  int64              // estimated bytes moved per execution (roofline.go)
	nnz    int64              // sparse non-zeros swept per execution
}

// opFns is what a forward op builder returns: the whole-op sweep plus — for
// row-divisible ops — the single-row body the plan partitioner (partition.go)
// regroups into chunk-gated sub-plans. run and each execute identical
// per-row arithmetic, so partitioned execution is bitwise-identical to the
// sequential sweep.
type opFns struct {
	run  func()
	each func(i int)
	rows int
}

// buf holds one DAG node's execution buffers in a compiled plan. Every
// plan allocates its own from its workspace arena; the graph's spec keeps
// only metadata.
type buf[E tensor.Float] struct {
	rows, cols int                // dense shape; rows doubles as vector length
	dense      []E                // dense value, row-major
	vec        []E                // vector value
	vals       []E                // sparse value buffer on the pattern
	score      func(i, j int32) E // virtual evaluator, composed at compile time
	gdense     []E                // cotangent buffers (training plans only)
	gvec       []E
	gvals      []E
	grad       []E // parameter gradient accumulator
}

// expFn returns the softmax exponential for width E: math.Exp for f64
// plans, exp32 for f32 plans.
func expFn[E tensor.Float]() func(E) E {
	if f, ok := any(exp32).(func(E) E); ok {
		return f
	}
	return any(math.Exp).(func(E) E)
}

// exp32 is a single-precision exponential (Cephes expf scheme): argument
// reduction against ln2 in two steps, a degree-5 minimax polynomial on the
// reduced interval, and the power of two assembled directly in the exponent
// field. Accurate to ~2 ulp in float32 — indistinguishable from rounding
// math.Exp — at a fraction of the cost, which matters because the softmax
// sweeps evaluate it once per edge. The softmax callers always pass
// max-subtracted arguments (≤ 0), so the positive range never overflows.
func exp32(x float32) float32 {
	const (
		log2e = 1.44269504088896341
		c1    = 0.693359375    // ln2 high part
		c2    = -2.12194440e-4 // ln2 low part
		p0    = 1.9875691500e-4
		p1    = 1.3981999507e-3
		p2    = 8.3334519073e-3
		p3    = 4.1665795894e-2
		p4    = 1.6666665459e-1
		p5    = 5.0000001201e-1
	)
	if x > 88.72283 {
		return float32(math.Inf(1))
	}
	if x < -87.33655 {
		return 0
	}
	fn := float32(math.Floor(float64(x)*log2e + 0.5))
	r := x - fn*c1
	r -= fn * c2
	z := r * r
	p := (((((p0*r+p1)*r+p2)*r+p3)*r+p4)*r+p5)*z + r + 1
	return p * math.Float32frombits(uint32(int32(fn)+127)<<23)
}

// redScratch accumulates per-worker partial sums for scalar-parameter
// gradients (β, ε). Slots stay zero between calls.
type redScratch[E tensor.Float] struct{ sums []E }

func (r *redScratch[E]) ensure() {
	// One extra slot: the weighted scheduler may emit Workers()+1 chunks.
	if need := par.Workers() + 1; len(r.sums) < need {
		grown := make([]E, need)
		copy(grown, r.sums)
		r.sums = grown
	}
}

func (r *redScratch[E]) fold() E {
	var total E
	for i, v := range r.sums {
		if v != 0 {
			total += v
			r.sums[i] = 0
		}
	}
	return total
}

// partialsScratch holds per-worker dense accumulators for the Aᵀ·B weight
// gradients. Buffers are allocated lazily on first use (the warm-up step)
// and stay zero between calls.
type partialsScratch[E tensor.Float] struct{ mats [][]E }

func (s *partialsScratch[E]) ensure(n int) [][]E {
	if need := par.Workers() + 1; len(s.mats) < need {
		grown := make([][]E, need)
		copy(grown, s.mats)
		s.mats = grown
	}
	for i, p := range s.mats {
		if p != nil && len(p) != n {
			s.mats[i] = nil
		}
	}
	return s.mats
}

func nnzWeight(pat *sparse.CSR) func(int) int64 {
	return func(i int) int64 { return int64(pat.RowNNZ(i)) }
}

// opSample is the fused SDDMM-like sampler that terminates a fusion group
// (Section 6.2): it evaluates the composed virtual score closure on every
// non-zero of the pattern. weights (the adjacency values) multiply each
// score when the mask is weighted; with softmax, the row softmax is folded
// into the same sweep (the FusedSoftmaxScores shape).
func opSample[E tensor.Float](pat *sparse.CSR, cuts *par.Cuts, dst []E, f func(i, j int32) E, weights []E, rowOff int32, softmax bool) opFns {
	exp := expFn[E]()
	var each func(i int)
	if softmax {
		each = func(i int) {
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			if b == e {
				return
			}
			gi := int32(i) + rowOff
			m := E(math.Inf(-1))
			for p := b; p < e; p++ {
				v := f(gi, pat.Col[p])
				if weights != nil {
					v *= weights[p]
				}
				dst[p] = v
				if v > m {
					m = v
				}
			}
			var sum E
			for p := b; p < e; p++ {
				v := exp(dst[p] - m)
				dst[p] = v
				sum += v
			}
			inv := 1 / sum
			for p := b; p < e; p++ {
				dst[p] *= inv
			}
		}
	} else {
		each = func(i int) {
			gi := int32(i) + rowOff
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				v := f(gi, pat.Col[p])
				if weights != nil {
					v *= weights[p]
				}
				dst[p] = v
			}
		}
	}
	body := rowSweep(each)
	return opFns{run: func() { par.RangeCuts(cuts, body) }, each: each, rows: pat.Rows}
}

// rowSweep lifts a single-row body into the chunked (worker, lo, hi) shape
// the par schedulers execute.
func rowSweep(each func(i int)) func(worker, lo, hi int) {
	return func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			each(i)
		}
	}
}

// opRowSoftmax is the standalone row softmax (used when the peephole could
// not fold it into the sampler).
func opRowSoftmax[E tensor.Float](pat *sparse.CSR, cuts *par.Cuts, src, dst []E) opFns {
	exp := expFn[E]()
	each := func(i int) {
		b, e := pat.RowPtr[i], pat.RowPtr[i+1]
		if b == e {
			return
		}
		m := E(math.Inf(-1))
		for p := b; p < e; p++ {
			if src[p] > m {
				m = src[p]
			}
		}
		var sum E
		for p := b; p < e; p++ {
			v := exp(src[p] - m)
			dst[p] = v
			sum += v
		}
		inv := 1 / sum
		for p := b; p < e; p++ {
			dst[p] *= inv
		}
	}
	body := rowSweep(each)
	return opFns{run: func() { par.RangeCuts(cuts, body) }, each: each, rows: pat.Rows}
}

// opSpMM computes out = S·X over the pattern with values svals (the
// sparse node's buffer, or the adjacency values).
func opSpMM[E tensor.Float](pat *sparse.CSR, cuts *par.Cuts, svals []E, x, out *buf[E]) opFns {
	k := out.cols
	each := func(i int) {
		xd := x.dense
		orow := out.dense[i*k : (i+1)*k]
		clear(orow)
		for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
			v := svals[p]
			xrow := xd[int(pat.Col[p])*k : int(pat.Col[p])*k+k]
			for t, xv := range xrow {
				orow[t] += v * xv
			}
		}
	}
	body := rowSweep(each)
	return opFns{run: func() { par.RangeCuts(cuts, body) }, each: each, rows: pat.Rows}
}

// opSemiring delegates to the semiring SpMM kernels. Semiring aggregation
// compiles only into f64 plans (so E is float64 here), is inference-only
// and is not on the zero-alloc path, so the delegation (which allocates
// its result) is acceptable.
func opSemiring[E tensor.Float](pat *sparse.CSR, svals []E, x, out *buf[E], kind string) opFns {
	sv := pat.WithValues(any(svals).([]float64))
	xb, ob := any(x).(*buf[float64]), any(out).(*buf[float64])
	return opFns{run: func() {
		xd := &tensor.Dense{Rows: xb.rows, Cols: xb.cols, Data: xb.dense}
		var r *tensor.Dense
		switch kind {
		case "max":
			r = sv.MulDenseMax(xd)
		case "min":
			r = sv.MulDenseMin(xd)
		case "mean":
			r = sv.MulDenseMean(xd)
		}
		copy(ob.dense, r.Data)
	}}
}

// opMM computes out = X·W (W a parameter).
func opMM[E tensor.Float](x, w, out *buf[E]) opFns {
	k, m := x.cols, out.cols
	each := func(i int) {
		xd, wd := x.dense, w.dense
		xrow := xd[i*k : (i+1)*k]
		orow := out.dense[i*m : (i+1)*m]
		clear(orow)
		for t := 0; t < k; t++ {
			xv := xrow[t]
			if xv == 0 {
				continue
			}
			wrow := wd[t*m : (t+1)*m]
			for j, wv := range wrow {
				orow[j] += xv * wv
			}
		}
	}
	body := rowSweep(each)
	rows := out.rows
	return opFns{run: func() { par.Range(rows, body) }, each: each, rows: rows}
}

// opMatVec computes out = X·a for a k×1 parameter a.
func opMatVec[E tensor.Float](x, a, out *buf[E]) opFns {
	k := x.cols
	each := func(i int) {
		av := a.dense
		row := x.dense[i*k : (i+1)*k]
		var s E
		for t, v := range row {
			s += v * av[t]
		}
		out.vec[i] = s
	}
	body := rowSweep(each)
	rows := out.rows
	return opFns{run: func() { par.Range(rows, body) }, each: each, rows: rows}
}

// opRowNorms computes the row L2 norms of X.
func opRowNorms[E tensor.Float](x, out *buf[E]) opFns {
	k := x.cols
	each := func(i int) {
		row := x.dense[i*k : (i+1)*k]
		var s E
		for _, v := range row {
			s += v * v
		}
		out.vec[i] = E(math.Sqrt(float64(s)))
	}
	body := rowSweep(each)
	rows := out.rows
	return opFns{run: func() { par.Range(rows, body) }, each: each, rows: rows}
}

// opSigma applies the activation element-wise, swept row-by-row so the
// partitioner can gate output rows on chunk arrival. The piecewise-linear
// activations (relu, identity) get native bodies: they compute exactly
// what the float64 contract computes (max(z, 0) is math.Max(0, z) for
// every input), and skipping the closure call and conversions per element
// matters on an op this memory-thin.
func opSigma[E tensor.Float](z, out *buf[E], act Act) opFns {
	cols := out.cols
	var each func(i int)
	switch act.Name {
	case "relu":
		each = func(i int) {
			zd, od := z.dense, out.dense
			for t := i * cols; t < (i+1)*cols; t++ {
				od[t] = max(zd[t], 0)
			}
		}
	case "identity":
		each = func(i int) {
			copy(out.dense[i*cols:(i+1)*cols], z.dense[i*cols:(i+1)*cols])
		}
	default:
		f := act.F
		each = func(i int) {
			zd, od := z.dense, out.dense
			for t := i * cols; t < (i+1)*cols; t++ {
				od[t] = E(f(float64(zd[t])))
			}
		}
	}
	body := rowSweep(each)
	rows := out.rows
	return opFns{run: func() { par.Range(rows, body) }, each: each, rows: rows}
}

// opGINCombine computes out = agg + (1+ε)·h, reading ε at run time so
// optimizer updates are observed.
func opGINCombine[E tensor.Float](agg, h, eps, out *buf[E]) opFns {
	cols := out.cols
	each := func(i int) {
		c := 1 + eps.dense[0]
		ad, hd, od := agg.dense, h.dense, out.dense
		for t := i * cols; t < (i+1)*cols; t++ {
			od[t] = ad[t] + c*hd[t]
		}
	}
	body := rowSweep(each)
	rows := out.rows
	return opFns{run: func() { par.Range(rows, body) }, each: each, rows: rows}
}

// --- backward op bodies (reverse-traversal VJPs) ---

// opSigmaVJP accumulates z̄ += ḡ ⊙ σ'(z), with σ' evaluated at the stored
// pre-activation (the gnn.Activation contract) and the same native paths
// as opSigma for the piecewise-linear activations.
func opSigmaVJP[E tensor.Float](z, out *buf[E], act Act) func() {
	var body func(worker, lo, hi int)
	switch act.Name {
	case "relu":
		body = func(_, lo, hi int) {
			zd, zg, og := z.dense, z.gdense, out.gdense
			for i := lo; i < hi; i++ {
				if zd[i] > 0 {
					zg[i] += og[i]
				}
			}
		}
	case "identity":
		body = func(_, lo, hi int) {
			zg, og := z.gdense, out.gdense
			for i := lo; i < hi; i++ {
				zg[i] += og[i]
			}
		}
	default:
		df := act.DF
		body = func(_, lo, hi int) {
			zd, zg, og := z.dense, z.gdense, out.gdense
			for i := lo; i < hi; i++ {
				zg[i] += og[i] * E(df(float64(zd[i])))
			}
		}
	}
	n := out.rows * out.cols
	return func() { par.Range(n, body) }
}

// opMMVJP accumulates X̄ += Ḡ·Wᵀ and W̄ += Xᵀ·Ḡ (per-worker partials,
// folded and re-zeroed after the sweep).
func opMMVJP[E tensor.Float](x, w, out *buf[E], ps *partialsScratch[E]) func() {
	k, m := x.cols, out.cols
	xBody := func(_, lo, hi int) {
		wd, og, xg := w.dense, out.gdense, x.gdense
		for i := lo; i < hi; i++ {
			grow := og[i*m : (i+1)*m]
			xrow := xg[i*k : (i+1)*k]
			for t := 0; t < k; t++ {
				wrow := wd[t*m : (t+1)*m]
				var s E
				for j, gv := range grow {
					s += gv * wrow[j]
				}
				xrow[t] += s
			}
		}
	}
	wBody := func(worker, lo, hi int) {
		xd, og := x.dense, out.gdense
		acc := ps.mats[worker]
		if acc == nil {
			acc = make([]E, k*m)
			ps.mats[worker] = acc
		}
		for i := lo; i < hi; i++ {
			xrow := xd[i*k : (i+1)*k]
			grow := og[i*m : (i+1)*m]
			for t, xv := range xrow {
				if xv == 0 {
					continue
				}
				arow := acc[t*m : (t+1)*m]
				for j, gv := range grow {
					arow[j] += xv * gv
				}
			}
		}
	}
	rows := out.rows
	return func() {
		par.Range(rows, xBody)
		mats := ps.ensure(k * m)
		par.Range(rows, wBody)
		grad := w.grad
		for _, p := range mats {
			for i, v := range p {
				grad[i] += v
				p[i] = 0
			}
		}
	}
}

// opSpMMVJP handles Z = S·X: the sampler cotangent S̄_ij = Z̄[i,:]·X[j,:]
// (written onto the pattern — the SDDMM of the backward pass) and the
// feature cotangent X̄ += Sᵀ·Z̄ via the transposed pattern. For the
// adjacency leaf only the feature half runs (A is not trainable), using
// the transpose's own values adjT; for sparse value nodes the current
// values are permuted into the shared tvals scratch first.
func opSpMMVJP[E tensor.Float](pat, patT *sparse.CSR, cuts, cutsT *par.Cuts, svals, sgvals []E, perm []int64, tvals, adjT []E, x, out *buf[E]) func() {
	k := out.cols
	var samplerBody func(int, int, int)
	if sgvals != nil {
		samplerBody = func(_, lo, hi int) {
			og, xd := out.gdense, x.dense
			for i := lo; i < hi; i++ {
				grow := og[i*k : (i+1)*k]
				for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
					xrow := xd[int(pat.Col[p])*k : int(pat.Col[p])*k+k]
					var s E
					for t, gv := range grow {
						s += gv * xrow[t]
					}
					sgvals[p] = s
				}
			}
		}
	}
	vals := adjT
	var permBody func(int, int, int)
	if svals != nil {
		vals = tvals
		permBody = func(_, lo, hi int) {
			for p := lo; p < hi; p++ {
				tvals[perm[p]] = svals[p]
			}
		}
	}
	accBody := func(_, lo, hi int) {
		og, xg := out.gdense, x.gdense
		for j := lo; j < hi; j++ {
			xrow := xg[j*k : (j+1)*k]
			for p := patT.RowPtr[j]; p < patT.RowPtr[j+1]; p++ {
				v := vals[p]
				grow := og[int(patT.Col[p])*k : int(patT.Col[p])*k+k]
				for t, gv := range grow {
					xrow[t] += v * gv
				}
			}
		}
	}
	n := len(perm)
	return func() {
		if samplerBody != nil {
			par.RangeCuts(cuts, samplerBody)
		}
		if permBody != nil {
			par.Range(n, permBody)
		}
		par.RangeCuts(cutsT, accBody)
	}
}

// opSoftmaxVJP writes the softmax cotangent onto the input's value-grad
// buffer: S̄_ij = P_ij·(Ḡ_ij − ρ_i), ρ_i = Σ_j Ḡ_ij·P_ij.
func opSoftmaxVJP[E tensor.Float](pat *sparse.CSR, cuts *par.Cuts, pvals, pgvals, dst []E) func() {
	body := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			var rho E
			for p := b; p < e; p++ {
				rho += pgvals[p] * pvals[p]
			}
			for p := b; p < e; p++ {
				dst[p] = pvals[p] * (pgvals[p] - rho)
			}
		}
	}
	return func() { par.RangeCuts(cuts, body) }
}

// opMaskVJP propagates the mask cotangent to the virtual input: the
// weighted mask multiplies A's values back in, the pattern-only mask is a
// pass-through.
func opMaskVJP[E tensor.Float](src, dst, weights []E) func() {
	n := len(src)
	if weights == nil {
		return func() { copy(dst, src) }
	}
	body := func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			dst[p] = src[p] * weights[p]
		}
	}
	return func() { par.Range(n, body) }
}

// opDotVJP handles the virtual C = X·Yᵀ: X̄ += C̄·Y and Ȳ += C̄ᵀ·X, both
// restricted to the pattern (C̄ lives on it). Aliased X == Y (the H·Hᵀ
// self-attention case) is safe: the two accumulations run sequentially.
func opDotVJP[E tensor.Float](pat, patT *sparse.CSR, cuts, cutsT *par.Cuts, gvals []E, perm []int64, tvals []E, x, y *buf[E]) func() {
	k := x.cols
	xBody := func(_, lo, hi int) {
		yd, xg := y.dense, x.gdense
		for i := lo; i < hi; i++ {
			xrow := xg[i*k : (i+1)*k]
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				v := gvals[p]
				yrow := yd[int(pat.Col[p])*k : int(pat.Col[p])*k+k]
				for t, yv := range yrow {
					xrow[t] += v * yv
				}
			}
		}
	}
	permBody := func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			tvals[perm[p]] = gvals[p]
		}
	}
	yBody := func(_, lo, hi int) {
		xd, yg := x.dense, y.gdense
		for j := lo; j < hi; j++ {
			yrow := yg[j*k : (j+1)*k]
			for p := patT.RowPtr[j]; p < patT.RowPtr[j+1]; p++ {
				v := tvals[p]
				xrow := xd[int(patT.Col[p])*k : int(patT.Col[p])*k+k]
				for t, xv := range xrow {
					yrow[t] += v * xv
				}
			}
		}
	}
	n := len(perm)
	return func() {
		par.RangeCuts(cuts, xBody)
		par.Range(n, permBody)
		par.RangeCuts(cutsT, yBody)
	}
}

// opOuterVJP handles the virtual C = a·bᵀ: ā_i += Σ_j C̄_ij·b_j and
// b̄_j += Σ_i C̄_ij·a_i (column sums via the transposed pattern).
func opOuterVJP[E tensor.Float](pat, patT *sparse.CSR, cuts, cutsT *par.Cuts, gvals []E, perm []int64, tvals []E, a, b *buf[E]) func() {
	aBody := func(_, lo, hi int) {
		bv, ag := b.vec, a.gvec
		for i := lo; i < hi; i++ {
			var s E
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				s += gvals[p] * bv[pat.Col[p]]
			}
			ag[i] += s
		}
	}
	permBody := func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			tvals[perm[p]] = gvals[p]
		}
	}
	bBody := func(_, lo, hi int) {
		av, bg := a.vec, b.gvec
		for j := lo; j < hi; j++ {
			var s E
			for p := patT.RowPtr[j]; p < patT.RowPtr[j+1]; p++ {
				s += tvals[p] * av[patT.Col[p]]
			}
			bg[j] += s
		}
	}
	n := len(perm)
	return func() {
		par.RangeCuts(cuts, aBody)
		par.Range(n, permBody)
		par.RangeCuts(cutsT, bBody)
	}
}

// opDivVJP handles C = N ⊘ D on the pattern, recomputing the virtual
// operands entry-wise: N̄ = C̄ ⊘ D, D̄ = −C̄ ⊙ N ⊘ D². Zero denominators
// (the zero-norm guard) contribute zero cotangent.
func opDivVJP[E tensor.Float](pat *sparse.CSR, cuts *par.Cuts, gvals []E, num, den *buf[E]) func() {
	body := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			gi := int32(i)
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				de := den.score(gi, pat.Col[p])
				if de == 0 {
					num.gvals[p] = 0
					den.gvals[p] = 0
					continue
				}
				g := gvals[p]
				ne := num.score(gi, pat.Col[p])
				num.gvals[p] = g / de
				den.gvals[p] = -g * ne / (de * de)
			}
		}
	}
	return func() { par.RangeCuts(cuts, body) }
}

// opScaleVJP handles C = β·X: X̄ = β·C̄ and β̄ += Σ C̄ ⊙ X, the latter
// re-evaluating the virtual X entry-wise and reducing over per-worker
// partial sums.
func opScaleVJP[E tensor.Float](pat *sparse.CSR, cuts *par.Cuts, gvals []E, x, beta *buf[E], rs *redScratch[E]) func() {
	body := func(worker, lo, hi int) {
		bv := beta.dense[0]
		var local E
		for i := lo; i < hi; i++ {
			gi := int32(i)
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				g := gvals[p]
				x.gvals[p] = bv * g
				if g != 0 {
					local += g * x.score(gi, pat.Col[p])
				}
			}
		}
		rs.sums[worker] += local
	}
	return func() {
		rs.ensure()
		par.RangeCuts(cuts, body)
		beta.grad[0] += rs.fold()
	}
}

// opRepVJP handles C = u·1ᵀ: ū_i += Σ_j C̄_ij (row sums).
func opRepVJP[E tensor.Float](pat *sparse.CSR, cuts *par.Cuts, gvals []E, u *buf[E]) func() {
	body := func(_, lo, hi int) {
		ug := u.gvec
		for i := lo; i < hi; i++ {
			var s E
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				s += gvals[p]
			}
			ug[i] += s
		}
	}
	return func() { par.RangeCuts(cuts, body) }
}

// opRepTVJP handles C = 1·vᵀ: v̄_j += Σ_i C̄_ij (column sums via the
// transposed pattern).
func opRepTVJP[E tensor.Float](patT *sparse.CSR, cutsT *par.Cuts, gvals []E, perm []int64, tvals []E, v *buf[E]) func() {
	permBody := func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			tvals[perm[p]] = gvals[p]
		}
	}
	body := func(_, lo, hi int) {
		vg := v.gvec
		for j := lo; j < hi; j++ {
			var s E
			for p := patT.RowPtr[j]; p < patT.RowPtr[j+1]; p++ {
				s += tvals[p]
			}
			vg[j] += s
		}
	}
	n := len(perm)
	return func() {
		par.Range(n, permBody)
		par.RangeCuts(cutsT, body)
	}
}

// opAddVJP handles C = A + B on virtual operands: both cotangents are the
// incoming one (overwrite semantics — each virtual has a single consumer).
func opAddVJP[E tensor.Float](gvals []E, a, b *buf[E]) func() {
	return func() {
		copy(a.gvals, gvals)
		copy(b.gvals, gvals)
	}
}

// opLReLUVJP handles C = LeakyReLU(X): X̄ = C̄ ⊙ (X < 0 ? slope : 1),
// re-evaluating the virtual input's sign entry-wise.
func opLReLUVJP[E tensor.Float](pat *sparse.CSR, cuts *par.Cuts, gvals []E, x *buf[E], slope E) func() {
	body := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			gi := int32(i)
			for p := pat.RowPtr[i]; p < pat.RowPtr[i+1]; p++ {
				d := E(1)
				if x.score(gi, pat.Col[p]) < 0 {
					d = slope
				}
				x.gvals[p] = gvals[p] * d
			}
		}
	}
	return func() { par.RangeCuts(cuts, body) }
}

// opMatVecVJP handles u = X·a: X̄ += ū·aᵀ (a rank-1 row update) and
// ā += Xᵀ·ū (short k-vector, accumulated serially like tensor.VecMat).
func opMatVecVJP[E tensor.Float](x, a, out *buf[E]) func() {
	k := x.cols
	rowBody := func(_, lo, hi int) {
		av, xg := a.dense, x.gdense
		for i := lo; i < hi; i++ {
			g := out.gvec[i]
			if g == 0 {
				continue
			}
			xrow := xg[i*k : (i+1)*k]
			for t, v := range av {
				xrow[t] += g * v
			}
		}
	}
	rows := out.rows
	return func() {
		par.Range(rows, rowBody)
		xd, grad := x.dense, a.grad
		for i := 0; i < rows; i++ {
			g := out.gvec[i]
			if g == 0 {
				continue
			}
			xrow := xd[i*k : (i+1)*k]
			for t, v := range xrow {
				grad[t] += g * v
			}
		}
	}
}

// opRowNormsVJP handles n_i = ‖X[i,:]‖₂: X̄[i,:] += (n̄_i / n_i)·X[i,:],
// skipping zero-norm rows (subgradient 0, matching the forward guard).
func opRowNormsVJP[E tensor.Float](x, out *buf[E]) func() {
	k := x.cols
	body := func(_, lo, hi int) {
		xd, xg := x.dense, x.gdense
		for i := lo; i < hi; i++ {
			n := out.vec[i]
			if n == 0 {
				continue
			}
			c := out.gvec[i] / n
			if c == 0 {
				continue
			}
			row := xd[i*k : (i+1)*k]
			grow := xg[i*k : (i+1)*k]
			for t, v := range row {
				grow[t] += c * v
			}
		}
	}
	rows := out.rows
	return func() { par.Range(rows, body) }
}

// opGINCombineVJP handles Z = agg + (1+ε)·H: both dense cotangents
// accumulate, and ε̄ += Σ Z̄ ⊙ H reduces over per-worker partials.
func opGINCombineVJP[E tensor.Float](agg, h, eps, out *buf[E], rs *redScratch[E]) func() {
	body := func(worker, lo, hi int) {
		c := 1 + eps.dense[0]
		og, ag, hg, hd := out.gdense, agg.gdense, h.gdense, h.dense
		var local E
		for i := lo; i < hi; i++ {
			g := og[i]
			ag[i] += g
			hg[i] += c * g
			local += g * hd[i]
		}
		rs.sums[worker] += local
	}
	n := out.rows * out.cols
	return func() {
		rs.ensure()
		par.Range(n, body)
		eps.grad[0] += rs.fold()
	}
}
