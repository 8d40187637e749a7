package xfer_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"alloystack/internal/asstd"
	"alloystack/internal/blockdev"
	"alloystack/internal/core"
	"alloystack/internal/kvstore"
	"alloystack/internal/libos"
	"alloystack/internal/metrics"
	"alloystack/internal/xfer"
)

// fakeKV is an in-memory KVClient so the kv transport's conformance run
// does not need a TCP server (a real kvstore.Client is exercised in
// TestKVOverRealStore below).
type fakeKV struct {
	mu   sync.Mutex
	data map[string][]byte
}

func newFakeKV() *fakeKV { return &fakeKV{data: make(map[string][]byte)} }

func (f *fakeKV) Set(key string, value []byte) error {
	cp := make([]byte, len(value))
	copy(cp, value)
	f.mu.Lock()
	f.data[key] = cp
	f.mu.Unlock()
	return nil
}

func (f *fakeKV) Get(key string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.data[key]
	if !ok {
		return nil, kvstore.ErrNotFound
	}
	return v, nil
}

func (f *fakeKV) Del(key string) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.data[key]
	delete(f.data, key)
	return ok, nil
}

func testEnv(t *testing.T) *asstd.Env {
	t.Helper()
	w, err := core.Instantiate(core.Options{
		OnDemand:    true,
		CostScale:   0,
		BufHeapSize: 64 << 20,
		DiskImage:   blockdev.NewMemDisk(16 << 20),
	})
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	t.Cleanup(w.Destroy)
	env, err := w.NewEnv("xfer-test")
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

// newTransport builds one instance of each kind for the conformance
// suite, all stats-instrumented: the in-WFD kinds through New, kv over
// its backend as the baselines build it.
func newTransport(t *testing.T, kind string, stats *metrics.TransportStats) xfer.Transport {
	t.Helper()
	env := testEnv(t)
	switch kind {
	case xfer.KindKV:
		return xfer.NewKV(newFakeKV(), env, stats)
	}
	tr, err := xfer.New(kind, xfer.Config{Env: env, Pool: xfer.NewBufPool(), Paths: xfer.NewPathRegistry(), Stats: stats})
	if err != nil {
		t.Fatalf("New(%q): %v", kind, err)
	}
	return tr
}

// New builds the in-WFD kinds only; kv needs a backend its callers
// hold.
func TestNewRefusesBackendKinds(t *testing.T) {
	env := testEnv(t)
	if _, err := xfer.New(xfer.KindKV, xfer.Config{Env: env}); !errors.Is(err, xfer.ErrNoBackend) {
		t.Errorf("New(%q) err = %v, want ErrNoBackend", xfer.KindKV, err)
	}
	if _, err := xfer.New("carrier-pigeon", xfer.Config{Env: env}); !errors.Is(err, xfer.ErrUnknownKind) {
		t.Errorf("New of an unknown kind: err = %v, want ErrUnknownKind", err)
	}
}

func pattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	return data
}

// TestConformance is the shared suite every transport must pass: the
// acceptance criterion for the unified data plane.
func TestConformance(t *testing.T) {
	for _, kind := range xfer.Kinds {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			stats := metrics.NewTransportStats()
			tr := newTransport(t, kind, stats)
			if tr.Kind() != kind {
				t.Fatalf("Kind() = %q, want %q", tr.Kind(), kind)
			}

			t.Run("SendRecvRoundTrip", func(t *testing.T) {
				want := pattern(4096)
				if err := tr.Send("rt", want); err != nil {
					t.Fatalf("Send: %v", err)
				}
				got, release, err := tr.Recv("rt")
				if err != nil {
					t.Fatalf("Recv: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(want))
				}
				if err := release(); err != nil {
					t.Fatalf("release: %v", err)
				}
			})

			t.Run("AllocSendBufferRecv", func(t *testing.T) {
				want := pattern(2048)
				b, err := tr.Alloc("ab", uint64(len(want)))
				if err != nil {
					t.Fatalf("Alloc: %v", err)
				}
				copy(b.Bytes(), want)
				if err := tr.SendBuffer(b); err != nil {
					t.Fatalf("SendBuffer: %v", err)
				}
				got, release, err := tr.Recv("ab")
				if err != nil {
					t.Fatalf("Recv: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("Alloc/SendBuffer payload corrupted")
				}
				release()
			})

			t.Run("RecvMissingSlot", func(t *testing.T) {
				if _, _, err := tr.Recv("never-sent"); err == nil {
					t.Fatal("Recv of a missing slot succeeded")
				}
			})

			t.Run("LargeRoundTrip", func(t *testing.T) {
				// Many times the wire readers' first 64 KiB buffer, with a
				// ragged tail: a payload moves as one slot, whatever its size.
				want := pattern(1<<20 + 12345)
				if err := tr.Send("big", want); err != nil {
					t.Fatalf("Send: %v", err)
				}
				got, release, err := tr.Recv("big")
				if err != nil {
					t.Fatalf("Recv: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(want))
				}
				if err := release(); err != nil {
					t.Fatalf("release: %v", err)
				}
			})

			t.Run("ReleaseContract", func(t *testing.T) {
				// Recv's bytes stay intact until their release, while
				// later payloads come and go; after a release the next
				// Recv (on the file path, into the parked array) reads
				// its own bytes.
				a, b, c := pattern(5000), bytes.Repeat([]byte{0xEE}, 5000), bytes.Repeat([]byte{0x11}, 5000)
				recv := func(slot string, data []byte) ([]byte, func() error) {
					t.Helper()
					if err := tr.Send(slot, data); err != nil {
						t.Fatalf("Send %s: %v", slot, err)
					}
					got, release, err := tr.Recv(slot)
					if err != nil {
						t.Fatalf("Recv %s: %v", slot, err)
					}
					return got, release
				}
				gotA, releaseA := recv("rc-a", a)
				gotB, releaseB := recv("rc-b", b)
				if !bytes.Equal(gotA, a) || !bytes.Equal(gotB, b) {
					t.Fatal("a held payload changed before its release")
				}
				if err := releaseA(); err != nil {
					t.Fatalf("release: %v", err)
				}
				gotC, releaseC := recv("rc-c", c)
				if !bytes.Equal(gotC, c) {
					t.Fatal("the Recv after a release read other bytes")
				}
				if !bytes.Equal(gotB, b) {
					t.Fatal("a held payload changed when another was released and received")
				}
				releaseB()
				releaseC()
			})

			t.Run("Counters", func(t *testing.T) {
				k := stats.Kind(kind)
				if k.Ops == 0 || k.Bytes == 0 {
					t.Fatalf("no traffic counted for %q: %+v", kind, k)
				}
			})
		})
	}
}

// TestConsumeOnce: slot-store transports consume on Recv, like AsBuffer
// acquire. (The file path deliberately keeps the spill file — its
// consume tracking lives in the path registry.)
func TestConsumeOnce(t *testing.T) {
	for _, kind := range []string{xfer.KindRefpass, xfer.KindKV} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			tr := newTransport(t, kind, nil)
			if err := tr.Send("once", pattern(32)); err != nil {
				t.Fatalf("Send: %v", err)
			}
			_, release, err := tr.Recv("once")
			if err != nil {
				t.Fatalf("first Recv: %v", err)
			}
			release()
			if _, _, err := tr.Recv("once"); !errors.Is(err, libos.ErrSlotMissing) {
				t.Fatalf("second Recv err = %v, want ErrSlotMissing", err)
			}
		})
	}
}

// TestCopyAccounting pins the acceptance criterion: a full payload
// handoff costs zero copies on the refpass Alloc/SendBuffer path and at
// least two on the kv path.
func TestCopyAccounting(t *testing.T) {
	t.Run("refpass-zero", func(t *testing.T) {
		stats := metrics.NewTransportStats()
		tr := newTransport(t, xfer.KindRefpass, stats)
		b, err := tr.Alloc("z", 1024)
		if err != nil {
			t.Fatal(err)
		}
		copy(b.Bytes(), pattern(1024))
		if err := tr.SendBuffer(b); err != nil {
			t.Fatal(err)
		}
		_, release, err := tr.Recv("z")
		if err != nil {
			t.Fatal(err)
		}
		release()
		if k := stats.Kind(xfer.KindRefpass); k.Copies != 0 {
			t.Fatalf("refpass copies = %d, want 0", k.Copies)
		}
	})
	t.Run("kv-at-least-two", func(t *testing.T) {
		stats := metrics.NewTransportStats()
		tr := newTransport(t, xfer.KindKV, stats)
		if err := tr.Send("z", pattern(1024)); err != nil {
			t.Fatal(err)
		}
		_, release, err := tr.Recv("z")
		if err != nil {
			t.Fatal(err)
		}
		release()
		if k := stats.Kind(xfer.KindKV); k.Copies < 2 {
			t.Fatalf("kv copies = %d, want >= 2", k.Copies)
		}
	})
}

// TestBufPoolReuse: a released refpass buffer serves the next
// same-size allocation without touching the heap allocator.
func TestBufPoolReuse(t *testing.T) {
	stats := metrics.NewTransportStats()
	env := testEnv(t)
	tr := xfer.NewRefpass(env, xfer.NewBufPool(), stats)

	want := pattern(8192)
	if err := tr.Send("a", want); err != nil {
		t.Fatal(err)
	}
	got, release, err := tr.Recv("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload mismatch before reuse")
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}

	// Same size class: must come from the pool.
	want2 := pattern(8192)
	for i := range want2 {
		want2[i] ^= 0xFF
	}
	if err := tr.Send("b", want2); err != nil {
		t.Fatal(err)
	}
	if got := stats.Kind(xfer.KindRefpass).SlotsReused; got != 1 {
		t.Fatalf("stats slots reused = %d, want 1", got)
	}
	got2, release2, err := tr.Recv("b")
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if !bytes.Equal(got2, want2) {
		t.Fatal("recycled buffer returned stale bytes")
	}

	// Different size class: heap, not pool.
	if err := tr.Send("c", pattern(64)); err != nil {
		t.Fatal(err)
	}
	if got := stats.Kind(xfer.KindRefpass).SlotsReused; got != 1 {
		t.Fatalf("pool reused across size classes (slots reused = %d)", got)
	}
}

// findCollision brute-forces two distinct slot names whose FNV-32
// hashes collide (a birthday search over ~2^16 candidates).
func findCollision(t *testing.T) (string, string) {
	t.Helper()
	seen := make(map[string]string)
	for i := 0; ; i++ {
		slot := fmt.Sprintf("slot-%d", i)
		p := xfer.Path(slot)
		if prev, ok := seen[p]; ok {
			return prev, slot
		}
		seen[p] = slot
		if i > 1<<22 {
			t.Fatal("no FNV-32 collision found (should be astronomically unlikely)")
		}
	}
}

// TestPathCollisionDetected: two live slots on one 8.3 path must error
// instead of silently overwriting (the pre-refactor corruption bug).
func TestPathCollisionDetected(t *testing.T) {
	a, b := findCollision(t)
	reg := xfer.NewPathRegistry()
	if _, err := reg.Claim(a); err != nil {
		t.Fatalf("first claim: %v", err)
	}
	if _, err := reg.Claim(b); !errors.Is(err, xfer.ErrPathCollision) {
		t.Fatalf("colliding claim err = %v, want ErrPathCollision", err)
	}
	// After the first slot is consumed the path is free again.
	reg.Release(a)
	if _, err := reg.Claim(b); err != nil {
		t.Fatalf("claim after release: %v", err)
	}
	// Re-claiming the same slot (re-send) stays legal.
	if _, err := reg.Claim(b); err != nil {
		t.Fatalf("same-slot re-claim: %v", err)
	}
}

// TestFileTransportCollision drives the collision through the transport
// itself: the second Send must fail rather than corrupt the first.
func TestFileTransportCollision(t *testing.T) {
	a, b := findCollision(t)
	tr := newTransport(t, xfer.KindFile, nil)
	if err := tr.Send(a, pattern(128)); err != nil {
		t.Fatalf("Send(%q): %v", a, err)
	}
	if err := tr.Send(b, pattern(256)); !errors.Is(err, xfer.ErrPathCollision) {
		t.Fatalf("colliding Send err = %v, want ErrPathCollision", err)
	}
	// The first payload survived.
	got, release, err := tr.Recv(a)
	if err != nil {
		t.Fatalf("Recv(%q): %v", a, err)
	}
	defer release()
	if !bytes.Equal(got, pattern(128)) {
		t.Fatal("collision overwrote the first payload")
	}
}

// TestKVOverRealStore runs the kv transport against a live kvstore
// server, the exact configuration the baselines use.
func TestKVOverRealStore(t *testing.T) {
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := kvstore.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })

	tr := xfer.NewKV(client, nil, nil)
	want := pattern(100_000)
	if err := tr.Send("k", want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, release, err := tr.Recv("k")
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	defer release()
	if !bytes.Equal(got, want) {
		t.Fatal("payload mismatch through real store")
	}
	if srv.Keys() != 0 {
		t.Fatalf("store still holds %d keys after consume", srv.Keys())
	}
}

// TestTransportsConcurrent exercises one shared transport from many
// goroutines (parallel stage instances all funnel into one client)
// under -race.
func TestTransportsConcurrent(t *testing.T) {
	for _, kind := range []string{xfer.KindKV} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			stats := metrics.NewTransportStats()
			tr := newTransport(t, kind, stats)
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for g := 0; g < 8; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						slot := fmt.Sprintf("g%d-i%d", g, i)
						want := pattern(1024 + g*13 + i)
						if err := tr.Send(slot, want); err != nil {
							errs <- err
							return
						}
						got, release, err := tr.Recv(slot)
						if err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(got, want) {
							errs <- fmt.Errorf("%s: payload mismatch", slot)
						}
						release()
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if k := stats.Kind(kind); k.Ops != 128 {
				t.Fatalf("ops = %d, want 128", k.Ops)
			}
		})
	}
}

// TestReleaseContractConcurrentEnvs runs two WFDs' file transports at
// once, each receiving into arrays from the process-wide free list the
// other parks into. A payload read after its release, or an array handed
// to two receivers, shows as a mismatch here or as a race under -race.
func TestReleaseContractConcurrentEnvs(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for e := 0; e < 2; e++ {
		tr := newTransport(t, xfer.KindFile, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []byte
			var release func() error
			for i := 0; i < 32; i++ {
				slot := fmt.Sprintf("env%d-%d", e, i)
				want := bytes.Repeat([]byte{byte(e*64 + i + 1)}, 3000+i*97)
				if err := tr.Send(slot, want); err != nil {
					errs <- err
					return
				}
				got, next, err := tr.Recv(slot)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("%s: payload mismatch", slot)
					return
				}
				// Hold each payload across the next receive, then check
				// it once more before releasing it.
				if release != nil {
					if held[0] != byte(e*64+i) || held[len(held)-1] != byte(e*64+i) {
						errs <- fmt.Errorf("%s: the previous payload changed before its release", slot)
						return
					}
					release()
				}
				held, release = got, next
			}
			release()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
