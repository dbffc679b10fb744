package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark makes into a layer of the program.
// Root spans (Parent < 0) are the workload's unit of work: an epoch, a
// forward pass or a request. Spans of one unit share Step.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Step   int64  `json:"step"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, step int64, rank int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Step: step, Rank: rank, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already timed span (start and end measured by the caller,
// e.g. from a scheduled send time) and returns its ID.
func (t *tracer) record(name string, parent int, step int64, rank int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Step: step, Rank: rank,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// adopt makes parent the parent of every root span with the given name
// and step, for children recorded before their parent was known.
func (t *tracer) adopt(parent int, name string, step int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.Step == step && s.Parent < 0 {
			s.Parent = parent
		}
	}
}

// spanMeans returns the mean duration per span of the named spans on rank
// 0 and the largest per-rank mean across ranks.
func spanMeans(tr *tracer, name string, ranks int) (rank0, worst float64) {
	tot := make([]float64, ranks)
	cnt := make([]int, ranks)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == name && s.End >= 0 && s.Rank < ranks {
			tot[s.Rank] += float64(s.End-s.Start) / 1e9
			cnt[s.Rank]++
		}
	}
	tr.mu.Unlock()
	for r := range tot {
		if cnt[r] > 0 {
			m := tot[r] / float64(cnt[r])
			if r == 0 {
				rank0 = m
			}
			worst = max(worst, m)
		}
	}
	return rank0, worst
}

// layerOf maps a span name to its layer: the module prefix before the
// first dot ("distgnn.forward" → "distgnn"). Root spans belong to "bench".
func layerOf(s span) string {
	if s.Parent < 0 {
		return "bench"
	}
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// traceSummary is what the per-layer metrics need from the spans.
type traceSummary struct {
	Roots    int                // closed root spans
	SelfSec  map[string]float64 // self seconds per layer, summed over all spans
	Coverage float64            // Σ child-covered root time / Σ root time
}

// summarize computes self time per layer — a span's duration minus the part
// of it its direct children cover — and the coverage of root spans by their
// children. Open spans are ignored.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sum := traceSummary{SelfSec: map[string]float64{}}
	var rootNs, coveredNs int64
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := unionWithin(children[s.ID], s.Start, s.End)
		sum.SelfSec[layerOf(s)] += float64(s.End-s.Start-covered) / 1e9
		if s.Parent < 0 {
			sum.Roots++
			rootNs += s.End - s.Start
			coveredNs += covered
		}
	}
	if rootNs > 0 {
		sum.Coverage = float64(coveredNs) / float64(rootNs)
	}
	return sum
}

// unionWithin returns the length of the union of the spans' intervals
// clipped to [lo, hi].
func unionWithin(ss []span, lo, hi int64) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total int64
	cur0, cur1 := int64(-1), int64(-1)
	for _, s := range ss {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b <= a {
			continue
		}
		if a > cur1 {
			total += cur1 - cur0
			cur0, cur1 = a, b
		} else if b > cur1 {
			cur1 = b
		}
	}
	return total + cur1 - cur0
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
