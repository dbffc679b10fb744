package tensor

import (
	"fmt"

	"agnn/internal/obs"
	"agnn/internal/obs/metrics"
)

// Arena is a length-keyed buffer pool: the workspace substrate of the
// compiled execution plans (internal/fuse). A plan acquires every
// intermediate it needs once, at compile time, and reuses the buffers on
// every subsequent step, so steady-state training does no per-step
// allocations on the hot path. Buffers released back to the arena are
// recycled for later acquisitions of the same element type and length,
// which lets non-overlapping intermediates share storage. Each element
// type has its own pool and is tracked at its true width (4 or 8 bytes).
//
// An Arena is not safe for concurrent use; plans acquire at compile time
// and execute single-threaded op lists (the kernels themselves parallelize
// internally).
type Arena struct {
	free64 map[int][][]float64
	free32 map[int][][]float32

	out       int   // buffers handed out and not released
	bytes     int64 // total bytes ever allocated by this arena
	liveBytes int64 // bytes currently held by acquirers
}

// trackLive mirrors this arena's held-buffer delta into the process-wide
// workspace gauges (live and peak bytes) and, when tracing is on, the
// "arena bytes" counter timeline of the Chrome trace.
func (a *Arena) trackLive(deltaBytes int64) {
	a.liveBytes += deltaBytes
	metrics.ArenaLiveBytes.Add(float64(deltaBytes))
	live := metrics.ArenaLiveBytes.Value()
	metrics.ArenaPeakBytes.SetMax(live)
	obs.Sample("arena bytes", int64(live))
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		free64: make(map[int][][]float64),
		free32: make(map[int][][]float32),
	}
}

// freeList returns the arena's pool for element type E.
func freeList[E Float](a *Arena) map[int][][]E {
	if l, ok := any(a.free64).(map[int][][]E); ok {
		return l
	}
	return any(a.free32).(map[int][][]E)
}

// Acquire returns a zeroed length-n buffer from a, recycling a released
// buffer of the same element type and length when one is available.
func Acquire[E Float](a *Arena, n int) []E {
	size := DTypeOf[E]().Size() * int64(n)
	a.out++
	a.trackLive(size)
	free := freeList[E](a)
	if l := free[n]; len(l) > 0 {
		s := l[len(l)-1]
		free[n] = l[:len(l)-1]
		clear(s)
		return s
	}
	a.bytes += size
	return make([]E, n)
}

// Release returns s to a's free list for reuse.
func Release[E Float](a *Arena, s []E) {
	if s == nil {
		return
	}
	a.out--
	a.trackLive(-DTypeOf[E]().Size() * int64(len(s)))
	free := freeList[E](a)
	free[len(s)] = append(free[len(s)], s)
}

// Bytes returns the total workspace footprint allocated through the arena.
func (a *Arena) Bytes() int64 { return a.bytes }

// LiveBytes returns the bytes currently held by acquirers of this arena.
func (a *Arena) LiveBytes() int64 { return a.liveBytes }

// Live returns the number of buffers currently held by acquirers.
func (a *Arena) Live() int { return a.out }

// String summarizes the arena for workspace reports.
func (a *Arena) String() string {
	return fmt.Sprintf("arena{%d live buffers, %d KiB}", a.Live(), a.Bytes()/1024)
}
