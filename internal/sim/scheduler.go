// Package sim provides a deterministic discrete-event simulation runtime for
// the actor model defined in internal/node. All experiments in this
// repository run on it: the paper's 20-minute wall-clock runs replay in
// milliseconds of CPU time, and a fixed seed reproduces the exact event
// sequence.
package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// entry is one pending event in the queue: its firing time in nanoseconds
// since Epoch, its scheduling sequence number, and the slab slot holding its
// callback. (at, seq) is a total order — events with equal times fire in
// scheduling order, which keeps runs deterministic. Entries carry no
// pointers, so moving them within the heap costs no GC write barriers.
type entry struct {
	at   int64
	seq  uint64
	slot int32
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// record is the slab slot of a pending event. Slots are recycled through
// the scheduler's free list: experiment runs churn through millions of
// events, and allocating each one separately dominated the simulator's
// cost. gen increments every time a slot is released, so a stale cancel
// handle (or any other reference from a previous tenancy) can detect that
// the slot has moved on and must not be touched.
type record struct {
	fn       func()
	gen      uint32
	canceled bool
}

// Scheduler is a single-threaded discrete-event scheduler with a virtual
// clock. It is not safe for concurrent use; all interaction must happen from
// the goroutine that calls Run (which is also the goroutine that executes
// every event callback). Distinct Scheduler instances share nothing, so
// independent simulations may run on separate goroutines concurrently.
//
// Pending events live in a 4-ary min-heap of entries ordered by (at, seq);
// the clock is kept as nanoseconds since Epoch.
type Scheduler struct {
	now     int64 // nanoseconds since Epoch
	seq     uint64
	heap    []entry
	slab    []record
	free    []int32 // released slab slots
	seed    int64
	stopped bool
	ran     uint64
}

// Epoch is the virtual time at which every simulation starts. The concrete
// date is arbitrary; protocol code only ever subtracts Now values.
var Epoch = time.Date(2002, time.June, 23, 0, 0, 0, 0, time.UTC)

// NewScheduler returns a scheduler whose clock starts at Epoch and whose
// derived random sources are seeded from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return Epoch.Add(time.Duration(s.now)) }

// Seed returns the run seed the scheduler was created with.
func (s *Scheduler) Seed() int64 { return s.seed }

// Events returns the number of events executed so far.
func (s *Scheduler) Events() uint64 { return s.ran }

// later is the clock advanced by d, clamped below at now and saturating
// instead of overflowing.
func (s *Scheduler) later(d time.Duration) int64 {
	if int64(d) > math.MaxInt64-s.now {
		return math.MaxInt64
	}
	return s.now + int64(max(d, 0))
}

// push schedules fn at at (clamped to now) in a recycled or fresh slab slot
// and returns the slot and its generation, which together name this
// tenancy for cancel.
func (s *Scheduler) push(at int64, fn func()) (int32, uint32) {
	if at < s.now {
		at = s.now
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, record{})
	}
	r := &s.slab[slot]
	r.fn = fn
	r.canceled = false
	e := entry{at: at, seq: s.seq, slot: slot}
	s.seq++

	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.heap = h
	return slot, r.gen
}

// pop removes and returns the earliest entry. The heap must be non-empty.
func (s *Scheduler) pop() entry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if h[j].before(h[m]) {
					m = j
				}
			}
			if !h[m].before(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	s.heap = h
	return top
}

// cancel marks the event in slot canceled if gen still names its current
// tenancy and it has not been canceled already. It reports whether this
// call is the one that canceled it.
func (s *Scheduler) cancel(slot int32, gen uint32) bool {
	r := &s.slab[slot]
	if r.gen != gen || r.canceled {
		return false
	}
	r.canceled = true
	r.fn = nil
	return true
}

// At schedules fn to run at virtual time t. Times in the past run "now":
// they are clamped to the current clock so the clock never moves backwards.
// The returned function cancels the callback; calling it after the event
// fired (even if the underlying slot has been recycled for a later
// callback) is a safe no-op.
func (s *Scheduler) At(t time.Time, fn func()) func() {
	slot, gen := s.push(int64(t.Sub(Epoch)), fn)
	return func() { s.cancel(slot, gen) }
}

// After schedules fn to run d from the current virtual time and returns a
// cancel function. Negative durations are clamped to zero.
func (s *Scheduler) After(d time.Duration, fn func()) func() {
	slot, gen := s.push(s.later(d), fn)
	return func() { s.cancel(slot, gen) }
}

// Post schedules fn to run d from the current virtual time with no way to
// cancel it. It is the allocation-lean sibling of After for fire-and-forget
// work (message delivery, periodic ticks): it allocates nothing once the
// slab is warm, where After must allocate a cancel closure per call.
func (s *Scheduler) Post(d time.Duration, fn func()) {
	s.push(s.later(d), fn)
}

// Stop makes the currently running Run/RunUntilIdle call return after the
// current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// RunUntilIdle executes events until no events remain or Stop is called.
// It returns the number of events executed by this call.
func (s *Scheduler) RunUntilIdle() uint64 {
	return s.run(math.MaxInt64)
}

// Run executes events until the virtual clock would pass deadline, no events
// remain, or Stop is called. Events scheduled exactly at deadline still run.
// On return the clock is at the last executed event's time (or at deadline
// if it advanced past all events). It returns the number of events executed.
func (s *Scheduler) Run(deadline time.Time) uint64 {
	until := int64(deadline.Sub(Epoch))
	n := s.run(until)
	if !s.stopped && s.now < until {
		s.now = until
	}
	return n
}

// RunFor is shorthand for Run(Now().Add(d)).
func (s *Scheduler) RunFor(d time.Duration) uint64 {
	return s.Run(s.Now().Add(d))
}

func (s *Scheduler) run(deadline int64) uint64 {
	s.stopped = false
	var n uint64
	for len(s.heap) > 0 && !s.stopped && s.heap[0].at <= deadline {
		e := s.pop()
		r := &s.slab[e.slot]
		fn := r.fn
		canceled := r.canceled
		// Release the slot before running: fn may itself schedule events
		// and is the common producer of the next tenancy. The generation
		// bump has already invalidated any cancel handle to this firing.
		r.gen++
		r.fn = nil
		s.free = append(s.free, e.slot)
		if canceled {
			continue
		}
		s.now = e.at
		fn()
		n++
		s.ran++
	}
	return n
}

// DeriveRand returns a random source deterministically derived from the run
// seed and the given name. Distinct names give independent streams, so
// adding a node or a delay model does not perturb the streams of others.
func (s *Scheduler) DeriveRand(name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", s.seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}
