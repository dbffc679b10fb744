package tensor

import (
	"testing"

	"agnn/internal/obs/metrics"
)

// testRecycles checks one element type's pool: a same-length acquire
// recycles the released buffer zeroed, other lengths get fresh storage,
// and Bytes counts every allocation at the type's width.
func testRecycles[E Float](t *testing.T, width int64) {
	t.Helper()
	a := NewArena()
	s := Acquire[E](a, 12)
	for i := range s {
		s[i] = 7
	}
	Release(a, s)
	s2 := Acquire[E](a, 12)
	if &s2[0] != &s[0] {
		t.Fatal("same-length acquire did not recycle the released buffer")
	}
	for _, v := range s2 {
		if v != 0 {
			t.Fatal("recycled buffer not zeroed")
		}
	}
	if s3 := Acquire[E](a, 13); &s3[0] == &s[0] {
		t.Fatal("different length must not recycle")
	}
	if a.Bytes() != (12+13)*width {
		t.Fatalf("Bytes = %d, want %d", a.Bytes(), (12+13)*width)
	}
	if a.Live() != 2 {
		t.Fatalf("Live = %d, want 2", a.Live())
	}
}

func TestArenaRecyclesByShape(t *testing.T) {
	t.Run("f64", func(t *testing.T) { testRecycles[float64](t, 8) })
	t.Run("f32", func(t *testing.T) { testRecycles[float32](t, 4) })
}

// TestArenaFloats checks that the two element types keep separate pools
// and that live and peak bytes are tracked at 8 and 4 bytes per element.
func TestArenaFloats(t *testing.T) {
	a := NewArena()
	live0 := metrics.ArenaLiveBytes.Value()
	s64 := Acquire[float64](a, 10)
	s32 := Acquire[float32](a, 10)
	if got := a.LiveBytes(); got != 10*8+10*4 {
		t.Fatalf("LiveBytes = %d, want %d", got, 10*8+10*4)
	}
	if got := metrics.ArenaLiveBytes.Value() - live0; got != 10*8+10*4 {
		t.Fatalf("live gauge moved by %v, want %d", got, 10*8+10*4)
	}
	if peak := metrics.ArenaPeakBytes.Value(); peak < live0+10*8+10*4 {
		t.Fatalf("peak gauge %v below live %v", peak, live0+10*8+10*4)
	}
	Release(a, s64)
	if got := a.LiveBytes(); got != 10*4 {
		t.Fatalf("LiveBytes after f64 release = %d, want %d", got, 10*4)
	}
	s32b := Acquire[float32](a, 10)
	if &s32b[0] == &s32[0] {
		t.Fatal("held f32 buffer handed out twice")
	}
	Release(a, s32)
	Release(a, s32b)
	if a.Live() != 0 || a.LiveBytes() != 0 {
		t.Fatalf("after releasing everything: Live = %d, LiveBytes = %d", a.Live(), a.LiveBytes())
	}
	if got := metrics.ArenaLiveBytes.Value(); got != live0 {
		t.Fatalf("live gauge %v after releasing everything, want %v", got, live0)
	}
}

func TestArenaSteadyStateDoesNotAllocate(t *testing.T) {
	a := NewArena()
	Release(a, Acquire[float64](a, 64))
	Release(a, Acquire[float32](a, 64))
	allocs := testing.AllocsPerRun(100, func() {
		Release(a, Acquire[float64](a, 64))
		Release(a, Acquire[float32](a, 64))
	})
	if allocs > 0 {
		t.Fatalf("steady-state acquire/release allocated %v times", allocs)
	}
}
