package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// orderAPI is the part of the Scheduler API the differential order check
// drives. The real Scheduler and refScheduler both implement it.
type orderAPI interface {
	Now() time.Time
	At(time.Time, func()) func()
	After(time.Duration, func()) func()
	Post(time.Duration, func())
	Stop()
	Run(time.Time) uint64
	RunUntilIdle() uint64
}

// refScheduler is the order check's reference: a plain slice of pending
// events kept stable-sorted by time — each new event goes after every event
// at the same or an earlier time, so ties keep scheduling (seq) order — with
// no slot reuse, so a stale cancel handle is inert by construction.
type refScheduler struct {
	now     time.Time
	pending []*refEvent
	stopped bool
}

type refEvent struct {
	at       time.Time
	fn       func()
	canceled bool
}

func newRefScheduler() *refScheduler { return &refScheduler{now: Epoch} }

func (r *refScheduler) Now() time.Time { return r.now }
func (r *refScheduler) Stop()          { r.stopped = true }

func (r *refScheduler) At(t time.Time, fn func()) func() {
	if t.Before(r.now) {
		t = r.now
	}
	ev := &refEvent{at: t, fn: fn}
	i := sort.Search(len(r.pending), func(i int) bool { return r.pending[i].at.After(t) })
	r.pending = append(r.pending, nil)
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = ev
	return func() { ev.canceled = true }
}

func (r *refScheduler) After(d time.Duration, fn func()) func() {
	return r.At(r.now.Add(max(d, 0)), fn)
}

func (r *refScheduler) Post(d time.Duration, fn func()) { r.After(d, fn) }

func (r *refScheduler) RunUntilIdle() uint64 { return r.run(time.Time{}, false) }

func (r *refScheduler) Run(deadline time.Time) uint64 {
	n := r.run(deadline, true)
	if !r.stopped && r.now.Before(deadline) {
		r.now = deadline
	}
	return n
}

func (r *refScheduler) run(deadline time.Time, bounded bool) uint64 {
	r.stopped = false
	var n uint64
	for len(r.pending) > 0 && !r.stopped {
		ev := r.pending[0]
		if bounded && ev.at.After(deadline) {
			break
		}
		r.pending = r.pending[1:]
		if ev.canceled {
			continue
		}
		r.now = ev.at
		ev.fn()
		n++
	}
	return n
}

// orderTrace runs prog against s and returns what it observed: every firing
// (event id and clock) and the count and clock after every run call. prog
// is read two bytes at a time, an operation and its argument:
//
//	op%8 0..3  schedule an event: At relative to now, At relative to Epoch
//	           (so possibly before it), After, or Post; the argument picks
//	           an offset of -4..11 ms (past, equal and future times) and
//	           what the callback does when it fires: nothing, a nested
//	           schedule, Stop, or a cancel
//	op%8 4     cancel a handle taken so far, stale ones included
//	op%8 5     Run to now + offset
//	op%8 6     RunUntilIdle
//	op%8 7     Stop outside any run
//
// A final loop of RunUntilIdle calls drains what is left. At most 256
// events are scheduled, nested ones included, so every program ends.
func orderTrace(s orderAPI, prog []byte) []string {
	var trace []string
	var cancels []func()
	ids := 0
	offset := func(arg byte) time.Duration {
		return time.Duration(int(arg%16)-4) * time.Millisecond
	}
	runs := func(what string, n uint64) {
		trace = append(trace, fmt.Sprintf("%s ran %d, clock %v", what, n, s.Now().Sub(Epoch)))
	}
	var schedule func(kind, arg byte)
	schedule = func(kind, arg byte) {
		if ids == 256 {
			return
		}
		id := ids
		ids++
		fn := func() {
			trace = append(trace, fmt.Sprintf("fire %d at %v", id, s.Now().Sub(Epoch)))
			switch arg >> 6 {
			case 1:
				schedule(arg>>4, arg*7+3)
			case 2:
				s.Stop()
			case 3:
				if len(cancels) > 0 {
					cancels[int(arg>>2)%len(cancels)]()
				}
			}
		}
		d := offset(arg)
		switch kind % 4 {
		case 0:
			cancels = append(cancels, s.At(s.Now().Add(d), fn))
		case 1:
			cancels = append(cancels, s.At(Epoch.Add(d), fn))
		case 2:
			cancels = append(cancels, s.After(d, fn))
		case 3:
			s.Post(d, fn)
		}
	}
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		switch op % 8 {
		case 4:
			if len(cancels) > 0 {
				cancels[int(arg)%len(cancels)]()
			}
		case 5:
			runs("Run", s.Run(s.Now().Add(offset(arg))))
		case 6:
			runs("RunUntilIdle", s.RunUntilIdle())
		case 7:
			s.Stop()
		default:
			schedule(op, arg)
		}
	}
	for {
		n := s.RunUntilIdle()
		runs("drain", n)
		if n == 0 {
			return trace
		}
	}
}

// checkOrder runs prog against s and against the reference and reports the
// first difference in firing order or clock.
func checkOrder(s orderAPI, prog []byte) error {
	got, want := orderTrace(s, prog), orderTrace(newRefScheduler(), prog)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("step %d: got %q, reference %q", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("trace has %d steps, reference %d", len(got), len(want))
	}
	return nil
}

// tieBreakProgram schedules A at 1 ms and B at 5 ms, runs to 1 ms (A fires
// and frees its slot), then schedules C at 5 ms, which takes A's old slot
// 0: B and C tie at 5 ms, and only seq says B goes first.
var tieBreakProgram = []byte{0, 5, 0, 9, 5, 5, 0, 8}

func orderSeeds() [][]byte {
	seeds := [][]byte{tieBreakProgram, {6, 0}, {1, 0, 1, 0, 3, 0x40, 6, 0}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		prog := make([]byte, 2*(1+rng.Intn(40)))
		rng.Read(prog)
		seeds = append(seeds, prog)
	}
	return seeds
}

// FuzzSchedulerOrder checks the Scheduler against the stable-sort
// reference: the same firing order and the same clock after every run, for
// any mix of At/After/Post (equal, past and negative times), cancels (stale
// ones after slot reuse included), nested posts, Run, Stop and RunUntilIdle.
func FuzzSchedulerOrder(f *testing.F) {
	for _, prog := range orderSeeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		if err := checkOrder(NewScheduler(1), prog); err != nil {
			t.Fatal(err)
		}
	})
}

// slotTies plants the bug the order check exists to catch: every event is
// numbered by the slab slot it is about to take instead of by scheduling
// order, so events at equal times fire in slot order.
type slotTies struct{ *Scheduler }

func (s slotTies) numberBySlot() {
	if n := len(s.free); n > 0 {
		s.seq = uint64(s.free[n-1])
	} else {
		s.seq = uint64(len(s.slab))
	}
}

func (s slotTies) At(t time.Time, fn func()) func() {
	s.numberBySlot()
	return s.Scheduler.At(t, fn)
}

func (s slotTies) After(d time.Duration, fn func()) func() {
	s.numberBySlot()
	return s.Scheduler.After(d, fn)
}

func (s slotTies) Post(d time.Duration, fn func()) {
	s.numberBySlot()
	s.Scheduler.Post(d, fn)
}

// TestSchedulerOrderCheckCatchesSlotTieBreak is the order check's
// soundness test: a queue that breaks ties by slot must fail it.
func TestSchedulerOrderCheckCatchesSlotTieBreak(t *testing.T) {
	if err := checkOrder(NewScheduler(1), tieBreakProgram); err != nil {
		t.Fatalf("real scheduler failed the tie-break program: %v", err)
	}
	err := checkOrder(slotTies{NewScheduler(1)}, tieBreakProgram)
	if err == nil {
		t.Fatal("order check passed a queue that breaks ties by slot")
	}
	t.Logf("planted slot tie-break caught: %v", err)
}
