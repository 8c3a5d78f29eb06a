package trace

import (
	"testing"
)

// swap installs a fresh recorder for one test and restores the previous
// global state afterwards, so tests can run in any order.
func swap(t *testing.T, size int) *Recorder {
	t.Helper()
	prev := active.Load()
	r := Enable(size)
	t.Cleanup(func() { active.Store(prev) })
	return r
}

func TestRingWrap(t *testing.T) {
	r := swap(t, 64) // rounds to 64 slots
	total := 200
	for i := 0; i < total; i++ {
		Emit(KindShed, "n", "", -1, int64(i))
	}
	if got := r.Published(); got != uint64(total) {
		t.Fatalf("Published = %d, want %d", got, total)
	}
	evs := r.Events()
	if len(evs) != r.Cap() {
		t.Fatalf("ring kept %d events, want %d", len(evs), r.Cap())
	}
	// Survivors must be the newest events, in order.
	for i, e := range evs {
		want := int64(total - r.Cap() + i)
		if e.Value != want {
			t.Fatalf("slot %d holds value %d, want %d", i, e.Value, want)
		}
	}
}

func TestRecorderSizeRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1000, 1024}} {
		if got := NewRecorder(tc.in).Cap(); got != tc.want {
			t.Fatalf("NewRecorder(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}
