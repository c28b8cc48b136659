package shard_test

import (
	"fmt"
	"testing"
	"time"

	"aqua/internal/app"
	"aqua/internal/apps"
	"aqua/internal/client"
	"aqua/internal/consistency"
	"aqua/internal/core"
	"aqua/internal/group"
	"aqua/internal/netsim"
	"aqua/internal/node"
	"aqua/internal/qos"
	"aqua/internal/shard"
	"aqua/internal/sim"
)

const ms = time.Millisecond

func testService(primaries, secondaries int, lazy time.Duration) core.ServiceConfig {
	return core.ServiceConfig{
		Primaries:    primaries,
		Secondaries:  secondaries,
		LazyInterval: lazy,
		Group:        group.DefaultConfig(),
		NewApp:       func() app.Application { return apps.NewKVStore() },
	}
}

func clientTemplate(staleness int) client.Config {
	return client.Config{
		Spec:    qos.Spec{Staleness: staleness, Deadline: 500 * ms, MinProb: 0.5},
		Methods: qos.NewMethods("Get", "Version"),
	}
}

// routerHarness registers a Router as a runtime node and runs the test's
// driver once the node context exists — the same shape as a client Driver.
type routerHarness struct {
	r     *shard.Router
	drive func(ctx node.Context)
}

func (h *routerHarness) Init(ctx node.Context) {
	h.r.Init(ctx)
	h.drive(ctx)
}
func (h *routerHarness) Recv(from node.ID, m node.Message) { h.r.Recv(from, m) }

// deployRouted stands up n shards plus a router under node ID "c00".
func deployRouted(t *testing.T, seed int64, n int, m *shard.Map, staleness int,
	drive func(ctx node.Context, r *shard.Router)) (*sim.Scheduler, *core.ShardedDeployment, *shard.Router) {
	t.Helper()
	return deployRoutedWith(t, seed, n, m, clientTemplate(staleness), drive)
}

// deployRoutedWith is deployRouted with an explicit per-shard gateway
// template.
func deployRoutedWith(t *testing.T, seed int64, n int, m *shard.Map, ccfg client.Config,
	drive func(ctx node.Context, r *shard.Router)) (*sim.Scheduler, *core.ShardedDeployment, *shard.Router) {
	t.Helper()
	s := sim.NewScheduler(seed)
	rt := sim.NewRuntime(s, sim.WithDelay(netsim.UniformDelay{Min: 500 * time.Microsecond, Max: 2 * ms}))
	svc := testService(3, 1, 300*ms)
	svc.ExtraClients = []node.ID{"c00"}
	sd, err := core.DeployShards(rt, svc, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := shard.New(shard.Config{Shards: sd.Infos, Map: m, Client: ccfg})
	rt.Register("c00", &routerHarness{r: r, drive: func(ctx node.Context) { drive(ctx, r) }})
	rt.Start()
	return s, sd, r
}

// keyInRange finds a small key whose ring position lands inside [lo, hi).
func keyInRange(t *testing.T, lo, hi uint64) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("k%d", i)
		if h := uint64(shard.Hash(k)); h >= lo && h < hi {
			return k
		}
	}
	t.Fatal("no key found in range")
	return ""
}

func TestRouterRoutesByKey(t *testing.T) {
	half := shard.RingEnd / 2
	k0 := keyInRange(t, 0, half)
	k1 := keyInRange(t, half, shard.RingEnd)

	var reads [2]client.Result
	s, sd, r := deployRouted(t, 11, 2, nil, 0, func(ctx node.Context, r *shard.Router) {
		ctx.SetTimer(10*ms, func() {
			r.Invoke("Set", []byte(k0+"=a"), func(client.Result) {
				r.Invoke("Get", []byte(k0), func(res client.Result) { reads[0] = res })
			})
			r.Invoke("Set", []byte(k1+"=b"), func(client.Result) {
				r.Invoke("Get", []byte(k1), func(res client.Result) { reads[1] = res })
			})
		})
	})
	s.RunFor(5 * time.Second)

	for i, want := range []string{"a", "b"} {
		if reads[i].Err != "" || string(reads[i].Payload) != want {
			t.Fatalf("read %d = %+v, want %q", i, reads[i], want)
		}
		if owner := sd.Owner(reads[i].Replica); owner != i {
			t.Fatalf("read %d served by %s (shard %d), want shard %d", i, reads[i].Replica, owner, i)
		}
	}
	// Each shard's sequencer applied exactly its own key's update: the
	// keyspace is actually partitioned, not replicated.
	for i, d := range sd.Shards {
		if got := d.Replicas[d.Sequencer].Applied(); got != 1 {
			t.Fatalf("shard %d applied %d updates, want 1", i, got)
		}
	}
	if r.Outstanding(0) != 0 || r.Outstanding(1) != 0 {
		t.Fatalf("outstanding = %d, %d after completion", r.Outstanding(0), r.Outstanding(1))
	}
}

func TestRouterSingleShardPassthrough(t *testing.T) {
	var read client.Result
	s, sd, _ := deployRouted(t, 12, 1, nil, 0, func(ctx node.Context, r *shard.Router) {
		ctx.SetTimer(10*ms, func() {
			r.Invoke("Set", []byte("x=1"), func(client.Result) {
				r.Invoke("Get", []byte("x"), func(res client.Result) { read = res })
			})
		})
	})
	s.RunFor(5 * time.Second)

	if read.Err != "" || string(read.Payload) != "1" {
		t.Fatalf("read = %+v", read)
	}
	// A single-shard deployment keeps the historical unprefixed node IDs —
	// the property the byte-identity pin in internal/experiment relies on.
	if sd.Shards[0].Sequencer != "p00" {
		t.Fatalf("single-shard sequencer = %s, want p00", sd.Shards[0].Sequencer)
	}
}

// TestRouterBoundaryKey routes a key whose hash sits exactly on a range
// boundary: the boundary belongs to the range starting there, so the key
// must land on the range's owner — through the real dispatch path, not just
// the map arithmetic.
func TestRouterBoundaryKey(t *testing.T) {
	key := "k7"
	h := uint64(shard.Hash(key))
	base := shard.NewUniform(2)
	other := 1 - base.OwnerOf(shard.Hash(key))
	m, err := base.Move(h, h+1, other)
	if err != nil {
		t.Fatal(err)
	}

	var read client.Result
	s, sd, _ := deployRouted(t, 13, 2, m, 0, func(ctx node.Context, r *shard.Router) {
		ctx.SetTimer(10*ms, func() {
			r.Invoke("Set", []byte(key+"=edge"), func(client.Result) {
				r.Invoke("Get", []byte(key), func(res client.Result) { read = res })
			})
		})
	})
	s.RunFor(5 * time.Second)

	if read.Err != "" || string(read.Payload) != "edge" {
		t.Fatalf("read = %+v", read)
	}
	if owner := sd.Owner(read.Replica); owner != other {
		t.Fatalf("boundary key served by shard %d, want %d", owner, other)
	}
	if got := sd.Shards[other].Replicas[sd.Shards[other].Sequencer].Applied(); got != 1 {
		t.Fatalf("owning shard applied %d updates, want 1", got)
	}
}

// TestRouterShardMapVersionBump covers routing across a shard-map version
// bump delivered as a wire announce: stale versions are ignored, newer ones
// change where subsequent requests land.
func TestRouterShardMapVersionBump(t *testing.T) {
	half := shard.RingEnd / 2
	key := keyInRange(t, 0, half)
	bumped, err := shard.NewUniform(2).Move(0, half, 1)
	if err != nil {
		t.Fatal(err)
	}

	var before, after int
	var sd *core.ShardedDeployment
	s, deployed, r := deployRouted(t, 14, 2, nil, 0, func(ctx node.Context, r *shard.Router) {
		ctx.SetTimer(10*ms, func() {
			r.Invoke("Set", []byte(key+"=1"), func(res client.Result) {
				before = sd.Owner(res.Replica)
				// A stale announce (same version as held) must not install.
				r.Recv("p00", shard.NewUniform(2).Announce())
				if got := r.ShardMap().Version(); got != 0 {
					t.Errorf("stale announce bumped version to %d", got)
				}
				// The real bump re-homes the key's range to shard 1.
				r.Recv("p00", bumped.Announce())
				if got := r.ShardMap().Version(); got != 1 {
					t.Errorf("announce not installed, version %d", got)
				}
				r.Invoke("Set", []byte(key+"=2"), func(res client.Result) {
					after = sd.Owner(res.Replica)
				})
			})
		})
	})
	sd = deployed
	s.RunFor(5 * time.Second)

	if before != 0 {
		t.Fatalf("pre-bump update handled by shard %d, want 0", before)
	}
	if after != 1 {
		t.Fatalf("post-bump update handled by shard %d, want 1", after)
	}

	// Announces that fail validation are dropped without changing the map.
	r.Recv("p00", consistency.ShardMapAnnounce{Version: 9, Shards: 3,
		Starts: []uint32{0}, Owners: []uint32{2}})
	if got := r.ShardMap().Version(); got != 1 {
		t.Fatalf("announce with wrong shard count installed, version %d", got)
	}
}

// TestRouterReadAllFanOut covers the cross-shard read path: one read fanned
// to every shard, each shard answering from its own replicas with its own
// staleness accounting — here visible as per-shard Version counters that
// reflect only the updates each shard owns.
func TestRouterReadAllFanOut(t *testing.T) {
	half := shard.RingEnd / 2
	k0 := keyInRange(t, 0, half)
	k0b := keyInRange(t, uint64(shard.Hash(k0))+1, half)
	k1 := keyInRange(t, half, shard.RingEnd)

	versions := make([]client.Result, 2)
	var answered int
	s, sd, r := deployRouted(t, 16, 2, nil, 0, func(ctx node.Context, r *shard.Router) {
		ctx.SetTimer(10*ms, func() {
			// Two updates land on shard 0, one on shard 1.
			r.Invoke("Set", []byte(k0+"=a"), func(client.Result) {
				r.Invoke("Set", []byte(k0b+"=b"), func(client.Result) {
					r.Invoke("Set", []byte(k1+"=c"), func(client.Result) {
						r.ReadAll("Version", nil, func(sh int, res client.Result) {
							versions[sh] = res
							answered++
						})
					})
				})
			})
		})
	})
	s.RunFor(5 * time.Second)

	if answered != 2 {
		t.Fatalf("ReadAll answered %d shards, want 2", answered)
	}
	for sh, want := range []string{"v2", "v1"} {
		if versions[sh].Err != "" || string(versions[sh].Payload) != want {
			t.Fatalf("shard %d version = %+v, want %q", sh, versions[sh], want)
		}
		if owner := sd.Owner(versions[sh].Replica); owner != sh {
			t.Fatalf("shard %d answer served by %s (shard %d)", sh, versions[sh].Replica, owner)
		}
	}
	if r.Outstanding(0) != 0 || r.Outstanding(1) != 0 {
		t.Fatalf("outstanding = %d, %d after fan-out", r.Outstanding(0), r.Outstanding(1))
	}
}

// TestRouterMoveReadYourWrites runs a live range move with a write still in
// flight and a read arriving mid-migration. The read buffers, is released to
// the new owner after install, and must observe the pre-move write —
// read-your-writes across the re-homing.
func TestRouterMoveReadYourWrites(t *testing.T) {
	half := shard.RingEnd / 2
	key := keyInRange(t, 0, half)

	var installed *shard.Map
	var read client.Result
	var moveErr error
	s, sd, r := deployRouted(t, 15, 2, nil, 0, func(ctx node.Context, r *shard.Router) {
		ctx.SetTimer(10*ms, func() {
			// Write is still in flight when Move starts: the drain phase must
			// wait for it before copying.
			r.Invoke("Set", []byte(key+"=v1"), nil)
			moveErr = r.Move(0, half, 1, func(m *shard.Map) { installed = m })
			if !r.Migrating() {
				t.Error("migration not in flight after Move")
			}
			// A second move while one is running must be refused.
			if err := r.Move(half, shard.RingEnd, 0, nil); err == nil {
				t.Error("concurrent migration accepted")
			}
			// This read arrives for the just-moved key mid-migration.
			r.Invoke("Get", []byte(key), func(res client.Result) { read = res })
		})
	})
	s.RunFor(10 * time.Second)

	if moveErr != nil {
		t.Fatal(moveErr)
	}
	if installed == nil || installed.Version() != 1 {
		t.Fatalf("move did not install (map %+v)", installed)
	}
	if r.Migrating() {
		t.Fatal("migration still marked in flight")
	}
	if read.Err != "" || string(read.Payload) != "v1" {
		t.Fatalf("post-move read = %+v, want the pre-move write", read)
	}
	if owner := sd.Owner(read.Replica); owner != 1 {
		t.Fatalf("post-move read served by shard %d, want the new owner 1", owner)
	}
	if got := r.ShardMap().Owner(key); got != 1 {
		t.Fatalf("router map owner = %d, want 1", got)
	}
	// The copy gave the destination shard a GSN for the key: its sequencer
	// applied exactly the migrated write.
	d1 := sd.Shards[1]
	if got := d1.Replicas[d1.Sequencer].Applied(); got != 1 {
		t.Fatalf("destination shard applied %d updates, want 1", got)
	}
}

// A move of more keys than the gateways' pending table holds must still
// copy every key: the copy must not evict its own unanswered reads and
// then count them as copied.
func TestRouterMoveMoreKeysThanMaxPending(t *testing.T) {
	const maxPending, nKeys = 4, 12
	half := shard.RingEnd / 2
	var keys []string
	for i := 0; len(keys) < nKeys; i++ {
		k := fmt.Sprintf("k%d", i)
		if uint64(shard.Hash(k)) < half {
			keys = append(keys, k)
		}
	}
	ccfg := clientTemplate(0)
	ccfg.MaxPending = maxPending

	var installed *shard.Map
	reads := map[string]client.Result{}
	s, sd, _ := deployRoutedWith(t, 16, 2, nil, ccfg, func(ctx node.Context, r *shard.Router) {
		// Write the keys one at a time (a burst would evict its own writes),
		// then move them all and read each back from the new owner.
		var readBack func(i int)
		readBack = func(i int) {
			if i == len(keys) {
				return
			}
			r.Invoke("Get", []byte(keys[i]), func(res client.Result) {
				reads[keys[i]] = res
				readBack(i + 1)
			})
		}
		var write func(i int)
		write = func(i int) {
			if i == len(keys) {
				if err := r.Move(0, half, 1, func(m *shard.Map) { installed = m; readBack(0) }); err != nil {
					t.Error(err)
				}
				return
			}
			r.Invoke("Set", []byte(keys[i]+"=v"+keys[i]), func(res client.Result) {
				if res.Err != "" {
					t.Errorf("write %s: %s", keys[i], res.Err)
				}
				write(i + 1)
			})
		}
		ctx.SetTimer(10*ms, func() { write(0) })
	})
	s.RunFor(30 * time.Second)

	if installed == nil {
		t.Fatal("move did not install")
	}
	for _, k := range keys {
		res, ok := reads[k]
		if !ok || res.Err != "" || string(res.Payload) != "v"+k {
			t.Fatalf("post-move read of %s = %+v, want v%s", k, res, k)
		}
		if owner := sd.Owner(res.Replica); owner != 1 {
			t.Fatalf("post-move read of %s served by shard %d, want 1", k, owner)
		}
	}
	d1 := sd.Shards[1]
	if got := d1.Replicas[d1.Sequencer].Applied(); got != nKeys {
		t.Fatalf("destination shard applied %d updates, want %d", got, nKeys)
	}
}
