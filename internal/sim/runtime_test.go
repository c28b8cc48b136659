package sim

import (
	"testing"
	"time"

	"aqua/internal/netsim"
	"aqua/internal/node"
)

type ping struct{ N int }

func TestRuntimeDeliversWithDelay(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s, WithDelay(netsim.ConstantDelay(5*time.Millisecond)))

	var gotFrom node.ID
	var gotAt time.Time
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) { ctx.Send("b", ping{N: 1}) },
	})
	rt.Register("b", &node.FuncNode{
		OnRecv: func(from node.ID, m node.Message) {
			gotFrom = from
			gotAt = s.Now()
			if p, ok := m.(ping); !ok || p.N != 1 {
				t.Errorf("message = %#v, want ping{1}", m)
			}
		},
	})
	rt.Start()
	s.RunUntilIdle()

	if gotFrom != "a" {
		t.Fatalf("from = %q, want a", gotFrom)
	}
	if want := Epoch.Add(5 * time.Millisecond); !gotAt.Equal(want) {
		t.Fatalf("delivered at %v, want %v", gotAt, want)
	}
}

func TestRuntimeLossDropsMessages(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s, WithLoss(netsim.UniformLoss{P: 1.0}))
	delivered := false
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) { ctx.Send("b", ping{}) },
	})
	rt.Register("b", &node.FuncNode{
		OnRecv: func(node.ID, node.Message) { delivered = true },
	})
	rt.Start()
	s.RunUntilIdle()
	if delivered {
		t.Fatal("message delivered despite 100% loss")
	}
	if sent, dropped := rt.Stats(); sent != 1 || dropped != 1 {
		t.Fatalf("stats = (%d,%d), want (1,1)", sent, dropped)
	}
}

func TestRuntimeCrashStopsDelivery(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s)
	var bGot int
	rt.Register("a", &node.FuncNode{})
	rt.Register("b", &node.FuncNode{
		OnRecv: func(node.ID, node.Message) { bGot++ },
	})
	rt.Start()

	a := rt.lookup("a")
	a.Send("b", ping{})
	s.RunUntilIdle()
	if bGot != 1 {
		t.Fatalf("pre-crash deliveries = %d, want 1", bGot)
	}

	rt.Crash("b")
	a.Send("b", ping{})
	s.RunUntilIdle()
	if bGot != 1 {
		t.Fatal("message delivered to crashed node")
	}

	rt.Crash("a")
	a.Send("b", ping{}) // crashed sender: silently ignored
	s.RunUntilIdle()
	if !rt.Crashed("a") || !rt.Crashed("b") {
		t.Fatal("Crashed() does not reflect crash state")
	}
}

func TestRuntimeCrashDisablesTimers(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s)
	fired := false
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) {
			ctx.SetTimer(10*time.Millisecond, func() { fired = true })
		},
	})
	rt.Start()
	s.RunFor(5 * time.Millisecond)
	rt.Crash("a")
	s.RunUntilIdle()
	if fired {
		t.Fatal("timer fired on crashed node")
	}
}

func TestRuntimeTimerCancel(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s)
	fired := false
	var cancel node.CancelFunc
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) {
			cancel = ctx.SetTimer(10*time.Millisecond, func() { fired = true })
		},
	})
	rt.Start()
	cancel()
	s.RunUntilIdle()
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestRuntimeInFlightMessageToCrashedNodeDropped(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s, WithDelay(netsim.ConstantDelay(10*time.Millisecond)))
	got := 0
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) { ctx.Send("b", ping{}) },
	})
	rt.Register("b", &node.FuncNode{
		OnRecv: func(node.ID, node.Message) { got++ },
	})
	rt.Start()
	s.RunFor(5 * time.Millisecond) // message is in flight
	rt.Crash("b")
	s.RunUntilIdle()
	if got != 0 {
		t.Fatal("in-flight message delivered to node that crashed first")
	}
}

func TestRuntimeDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate Register")
		}
	}()
	s := NewScheduler(1)
	rt := NewRuntime(s)
	rt.Register("a", &node.FuncNode{})
	rt.Register("a", &node.FuncNode{})
}

func TestRuntimeSendToUnknownPanics(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s)
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) { ctx.Send("ghost", ping{}) },
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on send to unknown node")
		}
	}()
	rt.Start()
}

func TestRuntimeDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		s := NewScheduler(99)
		rt := NewRuntime(s, WithDelay(netsim.UniformDelay{Min: 0, Max: 10 * time.Millisecond}))
		var trace []int
		for i := 0; i < 4; i++ {
			id := node.ID(rune('a' + i))
			i := i
			rt.Register(id, &node.FuncNode{
				OnInit: func(ctx node.Context) {
					for j := 0; j < 4; j++ {
						if node.ID(rune('a'+j)) != id {
							ctx.Send(node.ID(rune('a'+j)), ping{N: i})
						}
					}
				},
				OnRecv: func(_ node.ID, m node.Message) {
					trace = append(trace, m.(ping).N)
				},
			})
		}
		rt.Start()
		s.RunUntilIdle()
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) || len(t1) != 12 {
		t.Fatalf("trace lengths %d vs %d, want 12", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, t1, t2)
		}
	}
}

func TestRuntimeIDsSorted(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s)
	rt.Register("c", &node.FuncNode{})
	rt.Register("a", &node.FuncNode{})
	rt.Register("b", &node.FuncNode{})
	ids := rt.IDs()
	if len(ids) != 3 || ids[0] != "a" || ids[1] != "b" || ids[2] != "c" {
		t.Fatalf("IDs() = %v, want [a b c]", ids)
	}
}

func TestRuntimeRestartReplacesNode(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s)
	var oldGot, newGot int
	rt.Register("a", &node.FuncNode{})
	rt.Register("b", &node.FuncNode{
		OnRecv: func(node.ID, node.Message) { oldGot++ },
	})
	rt.Start()
	a := rt.lookup("a")
	a.Send("b", ping{})
	s.RunUntilIdle()
	if oldGot != 1 {
		t.Fatal("pre-restart delivery failed")
	}

	rt.Crash("b")
	initRan := false
	rt.Restart("b", &node.FuncNode{
		OnInit: func(ctx node.Context) { initRan = true },
		OnRecv: func(node.ID, node.Message) { newGot++ },
	})
	if !initRan {
		t.Fatal("fresh incarnation's Init did not run")
	}
	if rt.Crashed("b") {
		t.Fatal("restarted node still reported crashed")
	}
	a = rt.lookup("a")
	a.Send("b", ping{})
	s.RunUntilIdle()
	if newGot != 1 || oldGot != 1 {
		t.Fatalf("post-restart deliveries: old %d new %d", oldGot, newGot)
	}
}

func TestRuntimeRestartUnknownPanics(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.Restart("ghost", &node.FuncNode{})
}

func TestRuntimeInFlightToOldIncarnationDropped(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s, WithDelay(netsim.ConstantDelay(10*time.Millisecond)))
	got := 0
	rt.Register("a", &node.FuncNode{
		OnInit: func(ctx node.Context) { ctx.Send("b", ping{}) },
	})
	rt.Register("b", &node.FuncNode{})
	rt.Start()
	s.RunFor(5 * time.Millisecond) // message in flight to old b
	rt.Crash("b")
	rt.Restart("b", &node.FuncNode{
		OnRecv: func(node.ID, node.Message) { got++ },
	})
	s.RunUntilIdle()
	if got != 0 {
		t.Fatal("in-flight message crossed the restart boundary")
	}
}

// TestRuntimeCanceledTimerRecyclesRecord pins the timer pool's contract: a
// cancel that wins returns the timer record to the pool (so a steady-state
// SetTimer+cancel loop allocates only the cancel closure), and neither a
// repeated cancel nor a stale one after the timer fired releases it again.
func TestRuntimeCanceledTimerRecyclesRecord(t *testing.T) {
	s := NewScheduler(1)
	rt := NewRuntime(s)
	var ctx node.Context
	rt.Register("a", &node.FuncNode{OnInit: func(c node.Context) { ctx = c }})
	rt.Start()
	fired := 0
	f := func() { fired++ }
	cycle := func() {
		cancel := ctx.SetTimer(time.Millisecond, f)
		cancel()
		s.RunUntilIdle()
	}
	cycle() // warm
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 1 {
		t.Fatalf("SetTimer+cancel allocated %.2f once warm, want exactly 1 (the cancel closure)", allocs)
	}
	if fired != 0 {
		t.Fatalf("canceled timers fired %d times", fired)
	}

	pool := len(rt.freeTimer)
	canceled := ctx.SetTimer(time.Millisecond, f)
	canceled()
	canceled() // loses: must not release the record a second time
	if got := len(rt.freeTimer); got != pool {
		t.Fatalf("pool holds %d records after a repeated cancel, want %d", got, pool)
	}
	s.RunUntilIdle()
	firedCancel := ctx.SetTimer(time.Millisecond, f)
	s.RunUntilIdle()
	firedCancel() // stale: the timer fired and released its record
	canceled()    // stale from an older tenancy of a reused slot
	if fired != 1 || len(rt.freeTimer) != pool {
		t.Fatalf("fired %d (want 1), pool %d (want %d) after stale cancels", fired, len(rt.freeTimer), pool)
	}
}
