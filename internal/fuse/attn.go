package fuse

import (
	"math"

	"agnn/internal/par"
	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// The fused SDDMM + edge-softmax + SpMM attention op. The unfused op
// sequence writes nnz normalized scores in one sweep and re-reads them in
// the next; the fused op samples the composed virtual scores, normalizes
// the row and aggregates the gathered feature rows while the row's scores
// are still cache-hot. Per-row arithmetic matches the opSample→opSpMM
// sequence operation-for-operation, so fused and unfused plans produce
// bitwise-identical results — the property the f64 identity tests pin
// down.

// attnScratch holds one per-worker score row (sized to the pattern's
// maximum row degree) for the inference variant, which materializes no
// per-edge score tensor at all. ensure sizes the table on the calling
// goroutine before the sweep fans out, so workers only read it; rows are
// allocated when the worker count grows, keeping steady-state execution
// allocation-free.
type attnScratch[E tensor.Float] struct {
	rows   [][]E
	maxRow int
}

func (s *attnScratch[E]) ensure() {
	// One extra row: the weighted scheduler may emit Workers()+1 chunks.
	for len(s.rows) < par.Workers()+1 {
		s.rows = append(s.rows, make([]E, s.maxRow))
	}
}

// opAttnFused builds the fused attention sweep. With vals non-nil
// (training plans) the normalized scores are additionally written to the
// sparse node's value buffer inside the same sweep, which is exactly what
// the derived backward pass reads — so fusion needs no backward changes.
// With vals nil (inference plans) scores live in per-worker scratch and
// the nnz-sized buffer is never allocated. softmax selects the
// score→softmax→aggregate shape (GAT/AGNN); without it the masked scores
// aggregate directly (VA).
func opAttnFused[E tensor.Float](pat *sparse.CSR, cuts *par.Cuts, vals []E, f func(i, j int32) E, weights []E, rowOff int32, softmax bool, x, out *buf[E]) opFns {
	exp := expFn[E]()
	k := out.cols
	if vals != nil {
		each := func(i int) {
			xd := x.dense
			orow := out.dense[i*k : (i+1)*k]
			clear(orow)
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			if b == e {
				return
			}
			gi := int32(i) + rowOff
			if softmax {
				m := E(math.Inf(-1))
				for p := b; p < e; p++ {
					v := f(gi, pat.Col[p])
					if weights != nil {
						v *= weights[p]
					}
					vals[p] = v
					if v > m {
						m = v
					}
				}
				var sum E
				for p := b; p < e; p++ {
					v := exp(vals[p] - m)
					vals[p] = v
					sum += v
				}
				inv := 1 / sum
				for p := b; p < e; p++ {
					vals[p] *= inv
				}
			} else {
				for p := b; p < e; p++ {
					v := f(gi, pat.Col[p])
					if weights != nil {
						v *= weights[p]
					}
					vals[p] = v
				}
			}
			for p := b; p < e; p++ {
				v := vals[p]
				xrow := xd[int(pat.Col[p])*k : int(pat.Col[p])*k+k]
				for t, xv := range xrow {
					orow[t] += v * xv
				}
			}
		}
		body := rowSweep(each)
		return opFns{run: func() { par.RangeCuts(cuts, body) }, each: each, rows: pat.Rows}
	}

	// Inference: scores stay in per-worker scratch. The sweep needs the
	// worker id for its scratch row, so it exposes no single-row body —
	// inference fused plans are row-indivisible (partitioning callers
	// compile with NoAttnFuse).
	scratch := &attnScratch[E]{maxRow: pat.MaxRowNNZ()}
	body := func(worker, lo, hi int) {
		srow := scratch.rows[worker]
		xd, od := x.dense, out.dense
		for i := lo; i < hi; i++ {
			orow := od[i*k : (i+1)*k]
			clear(orow)
			b, e := pat.RowPtr[i], pat.RowPtr[i+1]
			if b == e {
				continue
			}
			gi := int32(i) + rowOff
			row := srow[:e-b]
			if softmax {
				m := E(math.Inf(-1))
				for p := b; p < e; p++ {
					v := f(gi, pat.Col[p])
					if weights != nil {
						v *= weights[p]
					}
					row[p-b] = v
					if v > m {
						m = v
					}
				}
				var sum E
				for q, v := range row {
					v = exp(v - m)
					row[q] = v
					sum += v
				}
				inv := 1 / sum
				for q := range row {
					row[q] *= inv
				}
			} else {
				for p := b; p < e; p++ {
					v := f(gi, pat.Col[p])
					if weights != nil {
						v *= weights[p]
					}
					row[p-b] = v
				}
			}
			for p := b; p < e; p++ {
				v := row[p-b]
				xrow := xd[int(pat.Col[p])*k : int(pat.Col[p])*k+k]
				for t, xv := range xrow {
					orow[t] += v * xv
				}
			}
		}
	}
	return opFns{run: func() {
		scratch.ensure()
		par.RangeCuts(cuts, body)
	}}
}
