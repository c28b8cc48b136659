package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsEventsInTimeOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.RunUntilIdle()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSchedulerTieBreaksBySchedulingOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		s.After(time.Millisecond, func() { got = append(got, i) })
	}
	s.RunUntilIdle()
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestSchedulerClockAdvancesToEventTime(t *testing.T) {
	s := NewScheduler(1)
	var at time.Time
	s.After(42*time.Millisecond, func() { at = s.Now() })
	s.RunUntilIdle()
	if want := Epoch.Add(42 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("event saw clock %v, want %v", at, want)
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var fired []time.Duration
	s.After(10*time.Millisecond, func() {
		fired = append(fired, s.Now().Sub(Epoch))
		s.After(5*time.Millisecond, func() {
			fired = append(fired, s.Now().Sub(Epoch))
		})
	})
	s.RunUntilIdle()
	if len(fired) != 2 || fired[0] != 10*time.Millisecond || fired[1] != 15*time.Millisecond {
		t.Fatalf("fired = %v, want [10ms 15ms]", fired)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	cancel := s.After(time.Millisecond, func() { ran = true })
	cancel()
	s.RunUntilIdle()
	if ran {
		t.Fatal("canceled event ran")
	}
}

func TestSchedulerCancelIsIdempotent(t *testing.T) {
	s := NewScheduler(1)
	cancel := s.After(time.Millisecond, func() {})
	cancel()
	cancel() // must not panic
	s.RunUntilIdle()
}

func TestSchedulerRunDeadline(t *testing.T) {
	s := NewScheduler(1)
	var ran []int
	s.After(10*time.Millisecond, func() { ran = append(ran, 1) })
	s.After(20*time.Millisecond, func() { ran = append(ran, 2) })
	s.After(30*time.Millisecond, func() { ran = append(ran, 3) })

	n := s.Run(Epoch.Add(20 * time.Millisecond))
	if n != 2 || len(ran) != 2 {
		t.Fatalf("ran %d events (%v), want exactly the first two", n, ran)
	}
	if got := s.Now(); !got.Equal(Epoch.Add(20 * time.Millisecond)) {
		t.Fatalf("clock = %v, want deadline", got)
	}
	s.RunUntilIdle()
	if len(ran) != 3 {
		t.Fatalf("remaining event did not run later: %v", ran)
	}
}

func TestSchedulerRunAdvancesClockToDeadlineWhenIdle(t *testing.T) {
	s := NewScheduler(1)
	s.Run(Epoch.Add(time.Second))
	if got := s.Now(); !got.Equal(Epoch.Add(time.Second)) {
		t.Fatalf("clock = %v, want Epoch+1s", got)
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler(1)
	var ran int
	s.After(time.Millisecond, func() { ran++; s.Stop() })
	s.After(2*time.Millisecond, func() { ran++ })
	s.RunUntilIdle()
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (Stop should halt the loop)", ran)
	}
}

func TestSchedulerPastEventClampsToNow(t *testing.T) {
	s := NewScheduler(1)
	s.After(10*time.Millisecond, func() {
		s.At(Epoch, func() {
			if s.Now().Before(Epoch.Add(10 * time.Millisecond)) {
				t.Error("clock moved backwards")
			}
		})
	})
	s.RunUntilIdle()
}

func TestSchedulerNegativeAfterClampsToZero(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	s.After(-time.Second, func() { ran = true })
	s.RunUntilIdle()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if !s.Now().Equal(Epoch) {
		t.Fatalf("clock = %v, want Epoch", s.Now())
	}
}

func TestDeriveRandIsDeterministicAndIndependent(t *testing.T) {
	a1 := NewScheduler(7).DeriveRand("a")
	a2 := NewScheduler(7).DeriveRand("a")
	b := NewScheduler(7).DeriveRand("b")
	other := NewScheduler(8).DeriveRand("a")

	x1, x2, y, z := a1.Int63(), a2.Int63(), b.Int63(), other.Int63()
	if x1 != x2 {
		t.Fatal("same seed+name produced different streams")
	}
	if x1 == y {
		t.Fatal("different names produced identical first draws")
	}
	if x1 == z {
		t.Fatal("different seeds produced identical first draws")
	}
}

// Property: for any set of non-negative delays, events fire in nondecreasing
// time order and the clock ends at the max delay.
func TestSchedulerOrderingProperty(t *testing.T) {
	prop := func(delaysMS []uint16) bool {
		s := NewScheduler(3)
		var fired []time.Duration
		var maxD time.Duration
		for _, ms := range delaysMS {
			d := time.Duration(ms) * time.Millisecond
			if d > maxD {
				maxD = d
			}
			s.After(d, func() { fired = append(fired, s.Now().Sub(Epoch)) })
		}
		s.RunUntilIdle()
		if len(fired) != len(delaysMS) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delaysMS) == 0 || s.Now().Sub(Epoch) == maxD
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The free-list tests below pin down the recycling contract: a slab slot
// is reused across tenancies, and only the generation counter keeps stale
// cancel handles from reaching into a later tenancy.

func TestSchedulerRecycledEventIgnoresStaleCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	cancel := s.After(time.Millisecond, func() { fired++ })
	s.RunUntilIdle()
	if fired != 1 {
		t.Fatalf("first tenancy fired %d times, want 1", fired)
	}
	// The slot is now on the free list; the next After reuses it.
	second := 0
	s.After(time.Millisecond, func() { second++ })
	cancel() // stale handle from the first tenancy: must be inert
	s.RunUntilIdle()
	if second != 1 {
		t.Fatalf("stale cancel suppressed the recycled event (fired %d times, want 1)", second)
	}
}

func TestSchedulerCanceledEventRecyclesWithoutFiring(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	cancel := s.After(time.Millisecond, func() { fired++ })
	cancel()
	s.RunUntilIdle()
	if fired != 0 {
		t.Fatal("canceled event fired")
	}
	// The canceled event was recycled at pop; its slot must serve a new
	// tenancy with a fresh callback, not the canceled flag or old fn.
	second := 0
	s.After(time.Millisecond, func() { second++ })
	s.RunUntilIdle()
	if second != 1 {
		t.Fatalf("recycled canceled event fired %d times, want 1", second)
	}
}

func TestSchedulerCancelAfterRecycleManyTenancies(t *testing.T) {
	// A single retained cancel handle must stay inert across many reuses of
	// its slab slot (the generation counter keeps advancing).
	s := NewScheduler(1)
	var stale func()
	fired := 0
	stale = s.After(time.Millisecond, func() { fired++ })
	s.RunUntilIdle()
	for i := 0; i < 100; i++ {
		s.After(time.Millisecond, func() { fired++ })
		stale()
		s.RunUntilIdle()
	}
	if fired != 101 {
		t.Fatalf("fired %d times, want 101 (stale cancel must never suppress a later tenancy)", fired)
	}
}

func TestSchedulerPostReusesEvents(t *testing.T) {
	// Post must recycle slab slots: schedule->fire->schedule in a chain
	// and verify the free list keeps the slab from growing.
	s := NewScheduler(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			s.Post(time.Millisecond, tick)
		}
	}
	s.Post(time.Millisecond, tick)
	s.RunUntilIdle()
	if n != 1000 {
		t.Fatalf("chain ran %d ticks, want 1000", n)
	}
	if got := len(s.free); got != 1 {
		t.Fatalf("free list holds %d events after a serial chain, want 1", got)
	}
}

// TestSchedulerPostSteadyStateZeroAlloc is the scheduler's allocation
// contract: once the slab, heap and free list have grown to the peak number
// of pending events, Post plus the run that fires it allocates nothing, and
// After allocates exactly its cancel closure.
func TestSchedulerPostSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	burst := func() {
		for i := 0; i < 300; i++ {
			s.Post(time.Duration(i%7)*time.Millisecond, fn)
		}
		s.RunUntilIdle()
	}
	burst() // warm
	if allocs := testing.AllocsPerRun(50, burst); allocs != 0 {
		t.Fatalf("Post+run allocated %.2f per burst once warm, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.After(time.Millisecond, fn)
		s.RunUntilIdle()
	}); allocs != 1 {
		t.Fatalf("After+run allocated %.2f once warm, want exactly 1 (its cancel closure)", allocs)
	}
}
