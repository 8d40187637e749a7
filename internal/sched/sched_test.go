package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmitFastPath(t *testing.T) {
	s := New(Config{MaxConcurrent: 2})
	g, err := s.Admit(context.Background(), "wf", 0)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if g.Wait != 0 {
		t.Fatalf("fast-path Wait = %v, want 0", g.Wait)
	}
	st := s.Stats()
	if st.Inflight != 1 || st.Admitted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	g.Release()
	if st := s.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight after release = %d", st.Inflight)
	}
}

func TestConcurrencyLimitAndFIFO(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 16})
	first, err := s.Admit(context.Background(), "wf", 0)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	grants := make(chan *Grant, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := s.Admit(context.Background(), "wf", 0)
			if err != nil {
				t.Errorf("queued Admit: %v", err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			grants <- g
		}(i)
		// Serialise arrivals so FIFO order is well defined.
		for {
			if s.Stats().Backlog == i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Drain one at a time; each release grants exactly the next waiter.
	first.Release()
	for i := 0; i < 4; i++ {
		g := <-grants
		if st := s.Stats(); st.Inflight != 1 {
			t.Fatalf("inflight = %d, want 1", st.Inflight)
		}
		g.Release()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

func TestShedAtQueueCap(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 2})
	g, _ := s.Admit(context.Background(), "wf", 0)
	defer g.Release()

	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			if g, err := s.Admit(context.Background(), "wf", 0); err == nil {
				<-done
				g.Release()
			}
		}()
	}
	for s.Stats().Backlog != 2 {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Admit(context.Background(), "wf", 0); !errors.Is(err, ErrShed) {
		t.Fatalf("over-cap Admit = %v, want ErrShed", err)
	}
	if s.Stats().Shed != 1 {
		t.Fatalf("shed count = %d", s.Stats().Shed)
	}
	close(done)
}

// A negative MaxQueue is a scheduler with no queue: the arrival that
// finds every slot taken is shed without waiting, and a freed slot
// admits the next one.
func TestNoQueueShedsAtLimit(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, MaxQueue: -1})
	a, errA := s.Admit(context.Background(), "wf", 0)
	b, errB := s.Admit(context.Background(), "wf", 0)
	if errA != nil || errB != nil {
		t.Fatalf("Admit under the limit: %v, %v", errA, errB)
	}
	if _, err := s.Admit(context.Background(), "wf", 0); !errors.Is(err, ErrShed) {
		t.Fatalf("Admit at the limit = %v, want ErrShed", err)
	}
	if st := s.Stats(); st.Shed != 1 || st.Backlog != 0 || st.Inflight != 2 {
		t.Fatalf("stats = %+v", st)
	}
	a.Release()
	c, err := s.Admit(context.Background(), "wf", 0)
	if err != nil {
		t.Fatalf("Admit after a release: %v", err)
	}
	b.Release()
	c.Release()
	if New(Config{}).cfg.MaxQueue != 64 {
		t.Fatal("zero MaxQueue must keep the default depth of 64")
	}
}

func TestWeightedFairness(t *testing.T) {
	s := New(Config{
		MaxConcurrent: 1,
		MaxQueue:      64,
		Weights:       map[string]int{"heavy": 3, "light": 1},
	})
	gate, _ := s.Admit(context.Background(), "other", 0)

	type grant struct {
		wf string
		g  *Grant
	}
	grants := make(chan grant, 24)
	var wg sync.WaitGroup
	enqueue := func(wf string, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g, err := s.Admit(context.Background(), wf, 0)
				if err != nil {
					t.Errorf("Admit %s: %v", wf, err)
					return
				}
				grants <- grant{wf, g}
			}()
			for s.Stats().Depths[wf] != i+1 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	enqueue("heavy", 9)
	enqueue("light", 3)

	// Drain: weight 3 vs 1 means each cycle grants 3 heavy + 1 light.
	gate.Release()
	var first8 []string
	for i := 0; i < 12; i++ {
		gr := <-grants
		if i < 8 {
			first8 = append(first8, gr.wf)
		}
		gr.g.Release()
	}
	wg.Wait()
	light := 0
	for _, wf := range first8 {
		if wf == "light" {
			light++
		}
	}
	// In 8 grants of a 3:1 schedule light gets 2; allow 1..3 for
	// scheduling slack but reject starvation and domination.
	if light < 1 || light > 3 {
		t.Fatalf("light got %d of first 8 grants (%v)", light, first8)
	}
}

func TestDeadlineRejectedAtAdmission(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	s := New(Config{MaxConcurrent: 1, MaxQueue: 8, Clock: clock})

	// Teach the EWMA a 1s service time.
	g, _ := s.Admit(context.Background(), "wf", 0)
	now = now.Add(time.Second)
	g.Release()

	hold, _ := s.Admit(context.Background(), "wf", 0)
	defer hold.Release()
	go s.Admit(context.Background(), "wf", 0) // backlog of 1
	for s.Stats().Backlog != 1 {
		time.Sleep(time.Millisecond)
	}

	// Estimated wait is ≥1s; a 100ms deadline is unmeetable.
	if _, err := s.Admit(context.Background(), "wf", 100*time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("doomed Admit = %v, want ErrDeadline", err)
	}
	if s.Stats().Deadlined != 1 {
		t.Fatalf("deadlined = %d", s.Stats().Deadlined)
	}
}

func TestDeadlineRejectedWhenPicked(t *testing.T) {
	var nowMu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time { nowMu.Lock(); defer nowMu.Unlock(); return now }
	advance := func(d time.Duration) { nowMu.Lock(); now = now.Add(d); nowMu.Unlock() }
	s := New(Config{MaxConcurrent: 1, MaxQueue: 8, Clock: clock})

	hold, _ := s.Admit(context.Background(), "wf", 0)

	errCh := make(chan error, 1)
	go func() {
		_, err := s.Admit(context.Background(), "wf", 50*time.Millisecond)
		errCh <- err
	}()
	for s.Stats().Backlog != 1 {
		time.Sleep(time.Millisecond)
	}

	// Let the deadline pass while queued; the release must reject the
	// waiter, not grant it.
	advance(time.Second)
	hold.Release()
	if err := <-errCh; !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired waiter got %v, want ErrDeadline", err)
	}
	if st := s.Stats(); st.Inflight != 0 {
		t.Fatalf("expired waiter holds a slot: %+v", st)
	}
}

func TestAdmitContextCancel(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	hold, _ := s.Admit(context.Background(), "wf", 0)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Admit(ctx, "wf", 0)
		errCh <- err
	}()
	for s.Stats().Backlog != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Admit = %v", err)
	}
	if s.Stats().Backlog != 0 {
		t.Fatal("cancelled waiter left in queue")
	}
	hold.Release()
	if st := s.Stats(); st.Inflight != 0 {
		t.Fatalf("slot leaked: %+v", st)
	}
}

func TestCloseRejectsWaiters(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	hold, _ := s.Admit(context.Background(), "wf", 0)
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Admit(context.Background(), "wf", 0)
		errCh <- err
	}()
	for s.Stats().Backlog != 1 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Fatalf("waiter after Close = %v", err)
	}
	if _, err := s.Admit(context.Background(), "wf", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit after Close = %v", err)
	}
	hold.Release()
}

// TestSaturationBoundsInflight hammers the scheduler from many
// goroutines and asserts inflight never exceeds the limit while excess
// load is shed rather than queued without bound.
func TestSaturationBoundsInflight(t *testing.T) {
	const limit = 4
	s := New(Config{MaxConcurrent: limit, MaxQueue: 8})
	var peak, cur, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := s.Admit(context.Background(), "wf", 0)
			if err != nil {
				shed.Add(1)
				return
			}
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			g.Release()
		}()
	}
	wg.Wait()
	if peak.Load() > limit {
		t.Fatalf("inflight peaked at %d, limit %d", peak.Load(), limit)
	}
	if shed.Load() == 0 {
		t.Fatal("saturation shed nothing; queue is unbounded")
	}
	if st := s.Stats(); st.Inflight != 0 || st.Backlog != 0 {
		t.Fatalf("end state: %+v", st)
	}
}
