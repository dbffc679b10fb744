package fuse

import (
	"fmt"
	"sort"
	"time"

	"agnn/internal/obs"
	"agnn/internal/obs/flight"
	"agnn/internal/obs/metrics"
	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// Options configures plan compilation.
type Options struct {
	// Train derives the backward pass by reverse traversal of the op list
	// and allocates cotangent buffers for every node. Inference plans skip
	// both.
	Train bool
	// SpanPrefix prefixes the obs span emitted around every executed op,
	// e.g. "va.l0." → spans "va.l0.Psi", "va.l0.Psi.bwd".
	SpanPrefix string
	// Workspace is the buffer arena the plan acquires its intermediates
	// from. Sharing one arena across recompilations (adjacency rebinds)
	// recycles the old plan's buffers. Nil allocates a private arena.
	Workspace *tensor.Arena
	// DType selects the element width of the compiled kernels. F64 (the
	// zero value) is the default double-precision path, bitwise-identical
	// to the pre-dtype runtime. F32 compiles the same op list over float32
	// buffers: inputs, parameters and cotangents are cast at the plan
	// boundary, parameter gradients are flushed back into the float64 Grad
	// accumulators after each backward pass.
	DType tensor.DType
	// NoAttnFuse disables the fused SDDMM+softmax+SpMM attention rule.
	// The fused op executes score sampling, normalization and aggregation
	// in one sweep per row block and is therefore row-indivisible; callers
	// that partition plans into arrival-gated fragments (the overlapped
	// RowEngine) must keep the unfused op sequence.
	NoAttnFuse bool
}

// PlanStats describes a compiled plan: the audit trail connecting the
// runtime back to the Section 6.2 analysis, and the measured op counts the
// cost model consumes instead of closed-form guesses.
type PlanStats struct {
	ForwardOps     int            // kernels launched per forward step
	BackwardOps    int            // kernels launched per backward step
	FusedVirtual   int            // virtual nodes folded into samplers
	SoftmaxFused   int            // mask→softmax pairs peephole-fused beyond the paper's rule
	AttnFused      int            // score→softmax→aggregate chains fused into single sweeps
	Groups         []string       // fusion groups, Analyze formatting
	OpCounts       map[string]int // forward op vocabulary histogram
	WorkspaceWords int64          // elements of workspace held by the plan (width per DType)
	DType          tensor.DType   // element width the plan was compiled for
	ForwardFlops   int64          // estimated flops per forward step (opCost sums)
	ForwardBytes   int64          // estimated bytes moved per forward step (opBytes sums)
	BackwardFlops  int64          // estimated flops per backward step
	BackwardBytes  int64          // estimated bytes moved per backward step
}

// WorkspaceBytes returns the plan's held workspace in bytes, at the
// element width the plan was compiled for.
func (s PlanStats) WorkspaceBytes() int64 { return s.DType.Size() * s.WorkspaceWords }

// Plan is a compiled, reusable executable form of a Graph: an ordered op
// list over preallocated buffers. Forward binds the input feature matrix
// and runs the op list; Backward (training plans) runs the reverse-derived
// VJP list and returns the input cotangent. All returned tensors are owned
// by the plan and are overwritten by the next step.
type Plan struct {
	Name   string
	train  bool
	rowOff int

	pat           *sparse.CSR // the sparsity pattern every sparse op runs over
	input, output *spec
	aux           map[string]*spec // additional dense inputs, bound via BindDense
	fwd, bwd      []planOp
	x             executor // the buffers at the plan's element width

	ws    *tensor.Arena
	stats PlanStats

	ranForward bool
	released   bool
}

// Compile lowers the graph into an executable plan: it runs the Section 6.2
// fusion analysis, fuses mask→softmax pairs into single sampling sweeps (a
// peephole beyond the paper's rule, matching the hand-written
// FusedSoftmaxScores kernel), allocates every intermediate once from the
// workspace arena, composes the virtual score closures, and emits the
// forward op list plus — for training plans — the reverse-traversal
// backward op list. Options.DType selects the element type compile is
// instantiated with.
func (g *Graph) Compile(opt Options) (*Plan, error) {
	if g.output == nil {
		return nil, fmt.Errorf("fuse: graph %q has no output", g.Name)
	}
	if g.input == nil {
		return nil, fmt.Errorf("fuse: graph %q has no dense input", g.Name)
	}
	if opt.DType == tensor.F32 {
		return compile[float32](g, opt)
	}
	return compile[float64](g, opt)
}

// compile is the body of Compile at element width E.
func compile[E tensor.Float](g *Graph, opt Options) (*Plan, error) {
	dtype := tensor.DTypeOf[E]()
	if opt.Train && g.rowOff != 0 {
		return nil, fmt.Errorf("fuse: graph %q: row-offset plans are inference-only", g.Name)
	}
	if len(g.aux) > 0 && narrow[E]() {
		return nil, fmt.Errorf("fuse: graph %q: auxiliary dense inputs require f64 plans", g.Name)
	}
	if len(g.aux) > 0 && opt.Train {
		return nil, fmt.Errorf("fuse: graph %q: auxiliary dense inputs are inference-only", g.Name)
	}
	nodes := g.dag.Nodes()
	cons := g.dag.consumers()
	for _, n := range nodes {
		switch n.Op {
		case "spmm-max", "spmm-min", "spmm-mean":
			if narrow[E]() {
				return nil, fmt.Errorf("fuse: graph %q: semiring aggregation %q requires f64 plans", g.Name, n.ID)
			}
			if opt.Train {
				return nil, fmt.Errorf("fuse: graph %q: semiring aggregation %q is inference-only", g.Name, n.ID)
			}
		}
		if opt.Train && n != g.adj && (n.Kind == Sparse || n.Kind == Virtual) && len(cons[n]) > 1 {
			return nil, fmt.Errorf("fuse: graph %q: %s node %q has %d consumers; training plans require single-consumer sparse/virtual nodes",
				g.Name, n.Kind, n.ID, len(cons[n]))
		}
	}

	groups := Analyze(g.dag) // panics if a virtual escapes — a builder bug

	// Peephole: a softmax whose only producer chain is a single-consumer
	// mask compiles to one fused sampling sweep; the mask's value buffer is
	// never materialized (its cotangent still is, for training).
	fusedMask := make(map[*Node]bool)
	for _, n := range nodes {
		if n.Op == "softmax" {
			if in := n.Inputs[0]; in.Op == "mask" && len(cons[in]) == 1 {
				fusedMask[in] = true
			}
		}
	}

	// Attention-fusion rule: an spmm whose sparse operand is a
	// single-consumer softmax over a fused mask (score→softmax→aggregate,
	// the GAT/AGNN shape) or a single-consumer mask directly (score→
	// aggregate, the VA shape) compiles to ONE sweep per row block that
	// samples the composed scores, normalizes and aggregates while the row
	// is hot. Training plans still write the normalized scores into the
	// sparse node's value buffer inside the same sweep, so the derived
	// backward pass is unchanged; inference plans never materialize a
	// per-edge score tensor at all. Per-row arithmetic order matches the
	// unfused sample-then-spmm sequence exactly, so fused plans are
	// bitwise-identical to unfused ones.
	attnAgg, attnSrc := attnFusion(g, cons, fusedMask, opt.NoAttnFuse)

	ws := opt.Workspace
	if ws == nil {
		ws = tensor.NewArena()
	}
	x := &exec[E]{}
	p := &Plan{Name: g.Name, train: opt.Train, rowOff: g.rowOff, pat: g.pat,
		input: g.sp(g.input), output: g.sp(g.output), x: x, ws: ws}

	var words int64
	acquire := func(n int) []E {
		s := tensor.Acquire[E](ws, n)
		x.held = append(x.held, s)
		words += int64(n)
		return s
	}
	cotangent := func(n int) []E {
		s := acquire(n)
		x.zero = append(x.zero, s)
		return s
	}
	// adopt makes caller-owned f64 storage readable at width E: by
	// reference in f64 plans, as a rounded workspace copy in f32 plans.
	adopt := func(src []float64) []E {
		if v, ok := any(src).([]E); ok {
			return v
		}
		v := acquire(len(src))
		round(v, src)
		return v
	}

	pat := g.pat
	nnz := pat.NNZ()
	// The nnz-balanced chunk boundaries every sparse sweep uses, computed
	// once per pattern here so steady-state ops pay zero scan cost.
	cuts := par.NewCuts(pat.Rows, nnzWeight(pat))

	// Every node's buffers, created up front so score closures and op
	// bodies can capture them; the allocation loop below fills them.
	bufs := make(map[*Node]*buf[E], len(nodes))
	store := make([]buf[E], len(nodes))
	for i, n := range nodes {
		s := g.sp(n)
		store[i] = buf[E]{rows: s.rows, cols: s.cols}
		bufs[n] = &store[i]
	}

	// The adjacency values (weighted masks, adjacency SpMM), adopted once
	// on first use and shared by every op that needs them.
	var adjVals []E
	sparseVals := func(n *Node) []E {
		if n != g.adj {
			return bufs[n].vals
		}
		if adjVals == nil {
			adjVals = adopt(pat.Val)
		}
		return adjVals
	}
	weights := func(mask *Node) []E {
		if g.sp(mask).weighted {
			return sparseVals(g.adj)
		}
		return nil
	}

	isAux := make(map[*Node]bool, len(g.aux))
	if len(g.aux) > 0 {
		p.aux = make(map[string]*spec, len(g.aux))
		x.auxRefs = make(map[string]*[]float64, len(g.aux))
		for _, n := range g.aux {
			isAux[n] = true
			p.aux[n.ID] = g.sp(n)
			x.auxRefs[n.ID] = any(&bufs[n].dense).(*[]float64) // aux inputs are f64-only
		}
	}

	// Allocate buffers and compose virtual score closures, in topological
	// (insertion) order so every node's inputs are ready.
	for _, n := range nodes {
		s, b := g.sp(n), bufs[n]
		size := s.rows * s.cols
		switch {
		case n == g.adj, isAux[n]:
			// pattern values adopted on use; aux dense bound per execution
		case n == g.input:
			if narrow[E]() {
				b.dense = acquire(size) // the rounding target of Forward's input
			}
			if opt.Train {
				b.gdense = cotangent(size)
			}
		case s.hasParam:
			b.dense = adopt(s.param.Value.Data)
			if opt.Train {
				b.grad = adopt(s.param.Grad.Data)
			}
			if narrow[E]() {
				x.params = append(x.params, paramShadow[E]{ref: s.param, b: b})
				if opt.Train {
					x.zero = append(x.zero, b.grad)
				}
			}
		case n.Kind == Virtual:
			b.score = composeScore(g, bufs, n)
			if opt.Train {
				b.gvals = acquire(nnz)
			}
		case n.Kind == Sparse:
			// Attention-fused sparse nodes materialize values only for
			// training (the backward pass reads them); inference keeps the
			// scores in per-row scratch inside the fused sweep.
			if !fusedMask[n] && !(attnSrc[n] && !opt.Train) {
				b.vals = acquire(nnz)
			}
			if opt.Train {
				b.gvals = acquire(nnz)
			}
		case n.Kind == Vector:
			b.vec = acquire(s.rows)
			if opt.Train {
				b.gvec = cotangent(s.rows)
			}
		default: // dense compute node
			b.dense = acquire(size)
			if opt.Train {
				b.gdense = cotangent(size)
			}
		}
	}

	// The boundary: f64 plans alias the caller's input and return views of
	// their own buffers; f32 plans widen into f64 buffers, which count
	// twice in the f32-element workspace total.
	x.in, x.out = bufs[g.input], bufs[g.output]
	if narrow[E]() {
		wide := func(b *buf[E]) *tensor.Dense {
			d := tensor.Acquire[float64](ws, b.rows*b.cols)
			x.held64 = append(x.held64, d)
			words += 2 * int64(len(d))
			return &tensor.Dense{Rows: b.rows, Cols: b.cols, Data: d}
		}
		x.outD = wide(x.out)
		if opt.Train {
			x.ginD = wide(x.in)
		}
	} else {
		view := func(b *buf[E], d []E) *tensor.Dense {
			return &tensor.Dense{Rows: b.rows, Cols: b.cols, Data: any(d).([]float64)}
		}
		x.inRef = any(&x.in.dense).(*[]float64)
		x.outD = view(x.out, x.out.dense)
		if opt.Train {
			x.ginD = view(x.in, x.in.gdense)
		}
	}

	// Shared transpose machinery for the backward pass: Sᵀ·X products run
	// over the transposed pattern, permuting the sparse node's current
	// values into a shared scratch. The adjacency transpose carries A's own
	// values (adopted like the forward adjacency values), so adjacency
	// SpMM backward needs no permutation.
	var patT *sparse.CSR
	var cutsT *par.Cuts
	var perm []int64
	var tvals, adjT []E
	if opt.Train {
		patT = pat.Transpose()
		cutsT = par.NewCuts(patT.Rows, nnzWeight(patT))
		perm = pat.TransposePerm()
		tvals = acquire(nnz)
		for _, n := range nodes {
			if n.Op == "spmm" && n.Inputs[0] == g.adj {
				adjT = adopt(patT.Val)
				break
			}
		}
	}

	rowOff := int32(g.rowOff)
	lane := flight.Process()
	emit := func(list *[]planOp, n *Node, suffix, op string, f opFns) {
		backward := suffix != ""
		flops, swept := opCost(g, n, op, nnz, backward)
		span := opt.SpanPrefix + n.ID + suffix
		*list = append(*list, planOp{
			span:   span,
			op:     op,
			run:    f.run,
			each:   f.each,
			rows:   f.rows,
			lat:    metrics.PlanOpSeconds.With(op),
			ops:    metrics.PlanOpsTotal.With(op),
			flopsC: metrics.OpFlopsTotal.With(op),
			bytesC: metrics.OpBytesTotal.With(op),
			lane:   lane,
			fcode:  flight.Code(span),
			flops:  flops,
			bytes:  opBytes(g, n, op, nnz, backward, opt.Train, dtype.Size()),
			nnz:    swept,
		})
	}

	// Forward op list, in topological order. Virtual nodes and fused masks
	// emit nothing — they live inside their sampler's sweep.
	for _, n := range nodes {
		s, b := g.sp(n), bufs[n]
		in := func(i int) *buf[E] { return bufs[n.Inputs[i]] }
		switch n.Op {
		case "input":
			continue
		case "mask":
			if fusedMask[n] || attnSrc[n] {
				continue
			}
			emit(&p.fwd, n, "", "mask",
				opSample(pat, cuts, b.vals, in(1).score, weights(n), rowOff, false))
		case "softmax":
			if attnSrc[n] {
				continue
			}
			if m := n.Inputs[0]; fusedMask[m] {
				emit(&p.fwd, n, "", "fused-softmax",
					opSample(pat, cuts, b.vals, bufs[m.Inputs[1]].score, weights(m), rowOff, true))
			} else {
				emit(&p.fwd, n, "", "softmax", opRowSoftmax(pat, cuts, in(0).vals, b.vals))
			}
		case "spmm":
			if src, ok := attnAgg[n]; ok {
				mask, softmax := src, false
				if src.Op == "softmax" {
					mask, softmax = src.Inputs[0], true
				}
				emit(&p.fwd, n, "", "fused-attn",
					opAttnFused(pat, cuts, bufs[src].vals, bufs[mask.Inputs[1]].score, weights(mask),
						rowOff, softmax, in(1), b))
				continue
			}
			emit(&p.fwd, n, "", "spmm", opSpMM(pat, cuts, sparseVals(n.Inputs[0]), in(1), b))
		case "spmm-max", "spmm-min", "spmm-mean":
			emit(&p.fwd, n, "", n.Op, opSemiring(pat, sparseVals(n.Inputs[0]), in(1), b, s.agg))
		case "mm":
			emit(&p.fwd, n, "", "mm", opMM(in(0), in(1), b))
		case "matvec":
			emit(&p.fwd, n, "", "matvec", opMatVec(in(0), in(1), b))
		case "rownorm":
			emit(&p.fwd, n, "", "rownorm", opRowNorms(in(0), b))
		case "sigma":
			emit(&p.fwd, n, "", "sigma", opSigma(in(0), b, s.act))
		case "gin-combine":
			emit(&p.fwd, n, "", "gin-combine", opGINCombine(in(0), in(1), in(2), b))
		default:
			if n.Kind == Virtual {
				continue
			}
			return nil, fmt.Errorf("fuse: graph %q: no executable lowering for op %q (node %q)", g.Name, n.Op, n.ID)
		}
	}

	// Backward op list: reverse traversal of the same node order. Dense and
	// vector cotangents accumulate (+=) into zeroed buffers; sparse and
	// virtual cotangents are overwritten by their single consumer.
	if opt.Train {
		for idx := len(nodes) - 1; idx >= 0; idx-- {
			n := nodes[idx]
			s, b := g.sp(n), bufs[n]
			in := func(i int) *buf[E] { return bufs[n.Inputs[i]] }
			var run func()
			switch n.Op {
			case "input":
				continue
			case "sigma":
				run = opSigmaVJP(in(0), b, s.act)
			case "mm":
				run = opMMVJP(in(0), in(1), b, &partialsScratch[E]{})
			case "matvec":
				run = opMatVecVJP(in(0), in(1), b)
			case "rownorm":
				run = opRowNormsVJP(in(0), b)
			case "gin-combine":
				run = opGINCombineVJP(in(0), in(1), in(2), b, &redScratch[E]{})
			case "spmm":
				if n.Inputs[0] == g.adj {
					run = opSpMMVJP(pat, patT, cuts, cutsT, nil, nil, perm, tvals, adjT, in(1), b)
				} else {
					run = opSpMMVJP(pat, patT, cuts, cutsT, in(0).vals, in(0).gvals, perm, tvals, nil, in(1), b)
				}
			case "softmax":
				run = opSoftmaxVJP(pat, cuts, b.vals, b.gvals, in(0).gvals)
			case "mask":
				run = opMaskVJP(b.gvals, in(1).gvals, weights(n))
			case "mmt":
				run = opDotVJP(pat, patT, cuts, cutsT, b.gvals, perm, tvals, in(0), in(1))
			case "outer":
				run = opOuterVJP(pat, patT, cuts, cutsT, b.gvals, perm, tvals, in(0), in(1))
			case "divide":
				run = opDivVJP(pat, cuts, b.gvals, in(0), in(1))
			case "scale":
				run = opScaleVJP(pat, cuts, b.gvals, in(0), in(1), &redScratch[E]{})
			case "rep":
				run = opRepVJP(pat, cuts, b.gvals, in(0))
			case "repT":
				run = opRepTVJP(patT, cutsT, b.gvals, perm, tvals, in(0))
			case "add":
				run = opAddVJP(b.gvals, in(0), in(1))
			case "lrelu":
				run = opLReLUVJP(pat, cuts, b.gvals, in(0), E(s.slope))
			default:
				return nil, fmt.Errorf("fuse: graph %q: no VJP for op %q (node %q)", g.Name, n.Op, n.ID)
			}
			emit(&p.bwd, n, ".bwd", n.Op, opFns{run: run})
		}
	}

	p.stats = PlanStats{
		ForwardOps:     len(p.fwd),
		BackwardOps:    len(p.bwd),
		SoftmaxFused:   len(fusedMask),
		AttnFused:      len(attnAgg),
		OpCounts:       make(map[string]int),
		WorkspaceWords: words,
		DType:          dtype,
	}
	for _, grp := range groups {
		p.stats.FusedVirtual += len(grp.Virtual)
		p.stats.Groups = append(p.stats.Groups, grp.String())
	}
	for _, op := range p.fwd {
		p.stats.OpCounts[op.op]++
		p.stats.ForwardFlops += op.flops
		p.stats.ForwardBytes += op.bytes
	}
	for _, op := range p.bwd {
		p.stats.BackwardFlops += op.flops
		p.stats.BackwardBytes += op.bytes
	}
	return p, nil
}

// MustCompile is Compile panicking on error — for the layer constructors,
// whose graphs are built by the library itself.
func (g *Graph) MustCompile(opt Options) *Plan {
	p, err := g.Compile(opt)
	if err != nil {
		panic(err)
	}
	return p
}

// attnFusion finds the spmm nodes the attention-fusion rule applies to:
// those whose sparse operand is a single-consumer softmax over a
// peephole-fused mask, or a single-consumer mask directly. It returns the
// spmm→folded-sparse-node map and the set of folded sparse nodes (which
// emit no standalone forward op).
func attnFusion(g *Graph, cons map[*Node][]*Node, fusedMask map[*Node]bool, disabled bool) (map[*Node]*Node, map[*Node]bool) {
	agg := make(map[*Node]*Node)
	src := make(map[*Node]bool)
	if disabled {
		return agg, src
	}
	for _, n := range g.dag.Nodes() {
		if n.Op != "spmm" {
			continue
		}
		in := n.Inputs[0]
		if in == g.adj || len(cons[in]) != 1 {
			continue
		}
		switch in.Op {
		case "softmax":
			if m := in.Inputs[0]; m.Op == "mask" && fusedMask[m] {
				agg[n], src[in] = in, true
			}
		case "mask":
			agg[n], src[in] = in, true
		}
	}
	return agg, src
}

// composeScore builds the closure evaluating one entry of a virtual node by
// composing its inputs' evaluators — the runtime realization of "evaluate
// the virtual values on the fly inside the sampler's sweep".
func composeScore[E tensor.Float](g *Graph, bufs map[*Node]*buf[E], n *Node) func(i, j int32) E {
	// Peepholes for the standard attention-score chains: the generic
	// composition nests one closure per virtual node, and on the scalar
	// per-edge sweeps that dynamic-call depth is pure overhead. Collapsing
	// the GAT chain lrelu(u·1ᵀ + 1·vᵀ) and the AGNN chain β·(X·Yᵀ ⊘ a·bᵀ)
	// into single closures performs the same float operations in the same
	// order — only the call tree changes.
	if n.Op == "lrelu" {
		if a := n.Inputs[0]; a.Op == "add" && a.Inputs[0].Op == "rep" && a.Inputs[1].Op == "repT" {
			us, vs := bufs[a.Inputs[0].Inputs[0]], bufs[a.Inputs[1].Inputs[0]]
			slope := E(g.sp(n).slope)
			return func(i, j int32) E {
				s := us.vec[i] + vs.vec[j]
				if s < 0 {
					s *= slope
				}
				return s
			}
		}
	}
	if n.Op == "scale" {
		if d := n.Inputs[0]; d.Op == "divide" && d.Inputs[0].Op == "mmt" && d.Inputs[1].Op == "outer" {
			xs, ys := bufs[d.Inputs[0].Inputs[0]], bufs[d.Inputs[0].Inputs[1]]
			as, bs := bufs[d.Inputs[1].Inputs[0]], bufs[d.Inputs[1].Inputs[1]]
			beta := bufs[n.Inputs[1]]
			k := xs.cols
			return func(i, j int32) E {
				den := as.vec[i] * bs.vec[j]
				if den == 0 {
					return 0
				}
				xrow := xs.dense[int(i)*k : int(i)*k+k]
				yrow := ys.dense[int(j)*k : int(j)*k+k]
				var acc E
				for t, v := range xrow {
					acc += v * yrow[t]
				}
				return beta.dense[0] * (acc / den)
			}
		}
	}
	switch n.Op {
	case "mmt":
		xs, ys := bufs[n.Inputs[0]], bufs[n.Inputs[1]]
		k := xs.cols
		return func(i, j int32) E {
			xrow := xs.dense[int(i)*k : int(i)*k+k]
			yrow := ys.dense[int(j)*k : int(j)*k+k]
			var acc E
			for t, v := range xrow {
				acc += v * yrow[t]
			}
			return acc
		}
	case "outer":
		as, bs := bufs[n.Inputs[0]], bufs[n.Inputs[1]]
		return func(i, j int32) E { return as.vec[i] * bs.vec[j] }
	case "divide":
		num, den := bufs[n.Inputs[0]], bufs[n.Inputs[1]]
		return func(i, j int32) E {
			d := den.score(i, j)
			if d == 0 {
				return 0
			}
			return num.score(i, j) / d
		}
	case "scale":
		xs, beta := bufs[n.Inputs[0]], bufs[n.Inputs[1]]
		return func(i, j int32) E { return beta.dense[0] * xs.score(i, j) }
	case "rep":
		us := bufs[n.Inputs[0]]
		return func(i, _ int32) E { return us.vec[i] }
	case "repT":
		vs := bufs[n.Inputs[0]]
		return func(_, j int32) E { return vs.vec[j] }
	case "add":
		as, bs := bufs[n.Inputs[0]], bufs[n.Inputs[1]]
		return func(i, j int32) E { return as.score(i, j) + bs.score(i, j) }
	case "lrelu":
		xs := bufs[n.Inputs[0]]
		slope := E(g.sp(n).slope)
		return func(i, j int32) E {
			s := xs.score(i, j)
			if s < 0 {
				s *= slope
			}
			return s
		}
	}
	panic(fmt.Sprintf("fuse: no score composition for virtual op %q (node %q)", n.Op, n.ID))
}

// Stats returns the plan's compile-time statistics.
func (p *Plan) Stats() PlanStats { return p.stats }

// Train reports whether the plan carries a backward pass.
func (p *Plan) Train() bool { return p.train }

// InputDims returns the expected input shape.
func (p *Plan) InputDims() (rows, cols int) { return p.input.rows, p.input.cols }

// BindDense binds an auxiliary dense input (declared with InputDenseAux)
// for subsequent Forward calls. The binding persists until rebound.
func (p *Plan) BindDense(id string, h *tensor.Dense) {
	s, ok := p.aux[id]
	if !ok {
		panic(fmt.Sprintf("fuse: plan %q has no auxiliary input %q", p.Name, id))
	}
	if h.Rows != s.rows || h.Cols != s.cols {
		panic(fmt.Sprintf("fuse: plan %q aux %q shape %d×%d, got %d×%d",
			p.Name, id, s.rows, s.cols, h.Rows, h.Cols))
	}
	p.x.bindAux(id, h)
}

// Forward binds h as the input feature matrix and executes the op list.
// The returned matrix is owned by the plan and overwritten by the next
// step.
func (p *Plan) Forward(h *tensor.Dense) *tensor.Dense {
	if p.released {
		panic("fuse: Forward on a released plan")
	}
	if h.Rows != p.input.rows || h.Cols != p.input.cols {
		panic(fmt.Sprintf("fuse: plan %q input shape %d×%d, got %d×%d",
			p.Name, p.input.rows, p.input.cols, h.Rows, h.Cols))
	}
	p.x.bind(h)
	runOps(p.fwd)
	p.ranForward = true
	return p.x.result()
}

// runOps executes an op list, recording each op's wall time into its
// latency histogram, its estimated flop/byte/nnz cost into the process and
// per-op-class roofline totals, and a span event into the flight
// recorder. Only atomic operations touch the instruments — no allocations
// (every handle and flight code is resolved at compile time).
func runOps(list []planOp) {
	for i := range list {
		op := &list[i]
		sp := obs.Start(op.span)
		t0 := time.Now()
		op.run()
		d := time.Since(t0)
		op.lat.Observe(d.Seconds())
		sp.End()
		op.ops.Inc()
		op.flopsC.Add(op.flops)
		op.bytesC.Add(op.bytes)
		metrics.PlanFlopsTotal.Add(op.flops)
		metrics.PlanBytesTotal.Add(op.bytes)
		metrics.PlanNNZTotal.Add(op.nnz)
		op.lane.Record(flight.KindSpan, op.fcode, d.Nanoseconds(), op.bytes, op.flops)
	}
}

// opCost estimates, from compile-time shapes, the floating-point operations
// and sparse non-zeros one execution of an op sweeps — the Section 6 op
// counts, made concrete per compiled op. Backward variants approximately
// double the forward work (two sweeps: operand cotangent + parameter/value
// cotangent).
func opCost(g *Graph, n *Node, op string, nnz int, backward bool) (flops, swept int64) {
	s := g.sp(n)
	r, c := int64(s.rows), int64(s.cols)
	nz := int64(nnz)
	switch op {
	case "mm":
		k := int64(g.sp(n.Inputs[0]).cols)
		flops = 2 * r * k * c
	case "spmm", "spmm-max", "spmm-min", "spmm-mean":
		flops, swept = 2*nz*c, nz
	case "mask":
		flops, swept = 2*nz, nz
	case "softmax":
		flops, swept = 5*nz, nz
	case "fused-softmax":
		flops, swept = 9*nz, nz
	case "fused-attn":
		// Score sampling (+softmax for the GAT/AGNN shape) plus the
		// aggregation, all in one sweep.
		if n.Inputs[0].Op == "softmax" {
			flops = 9*nz + 2*nz*c
		} else {
			flops = 2*nz + 2*nz*c
		}
		swept = nz
	case "matvec", "rownorm":
		k := int64(g.sp(n.Inputs[0]).cols)
		flops = 2 * r * k
	case "sigma":
		flops = r * c
	case "gin-combine":
		flops = 3 * r * c
	default:
		// Virtual-node VJPs (mmt, outer, divide, scale, rep, repT, add,
		// lrelu): one pattern sweep re-evaluating scores entry-wise.
		flops, swept = 4*nz, nz
	}
	if backward {
		flops *= 2
	}
	return flops, swept
}

// Backward executes the reverse-derived VJP op list for the cotangent g of
// the plan's output, accumulates parameter gradients into their Grad
// buffers, and returns the cotangent of the input (owned by the plan).
func (p *Plan) Backward(g *tensor.Dense) *tensor.Dense {
	if !p.train {
		panic(fmt.Sprintf("fuse: plan %q is inference-only", p.Name))
	}
	if !p.ranForward {
		panic(fmt.Sprintf("fuse: plan %q: Backward before Forward", p.Name))
	}
	if g.Rows != p.output.rows || g.Cols != p.output.cols {
		panic(fmt.Sprintf("fuse: plan %q output shape %d×%d, got cotangent %d×%d",
			p.Name, p.output.rows, p.output.cols, g.Rows, g.Cols))
	}
	p.x.seed(g)
	runOps(p.bwd)
	return p.x.inputGrad()
}

// Release returns every buffer the plan holds to its workspace arena. The
// plan is unusable afterwards; recompiling against the same arena (an
// adjacency rebind, say) recycles the storage.
func (p *Plan) Release() {
	if p.released {
		return
	}
	p.released = true
	p.x.release(p.ws)
}

// String renders a compact plan summary.
func (p *Plan) String() string {
	mode := "infer"
	if p.train {
		mode = "train"
	}
	ops := make([]string, 0, len(p.stats.OpCounts))
	for op := range p.stats.OpCounts {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	s := fmt.Sprintf("plan %q (%s): %d fwd ops, %d bwd ops, %d KiB workspace\n",
		p.Name, mode, p.stats.ForwardOps, p.stats.BackwardOps, p.stats.WorkspaceBytes()/1024)
	for _, op := range ops {
		s += fmt.Sprintf("  %-14s ×%d\n", op, p.stats.OpCounts[op])
	}
	return s
}
