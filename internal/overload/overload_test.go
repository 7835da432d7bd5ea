package overload

import (
	"context"
	"sync"
	"testing"
	"time"
)

// drain admits as many requests of class c as the limiter allows,
// returning the count (releases immediately so only the bucket gates).
func drain(l *Limiter, c Class, max int) int {
	n := 0
	for i := 0; i < max; i++ {
		d, release := l.Acquire(c)
		if !d.Admitted {
			break
		}
		release()
		n++
	}
	return n
}

func TestLimiterDegradationOrder(t *testing.T) {
	// Burst 16: reads admitted while tokens >= 9, lows while >= 5,
	// highs while >= 1.
	clk := NewManualClock()
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 16, Now: clk.Now})

	if got := drain(l, ClassRead, 100); got != 8 {
		t.Errorf("reads drained %d tokens, want 8 (down to the 50%% reserve)", got)
	}
	if got := drain(l, ClassSetupLow, 100); got != 4 {
		t.Errorf("low setups drained %d, want 4 (down to the 25%% reserve)", got)
	}
	if got := drain(l, ClassSetupHigh, 100); got != 4 {
		t.Errorf("high setups drained %d, want 4 (down to empty)", got)
	}
	// Everything non-recovery is now shed; recovery still proceeds.
	for _, c := range []Class{ClassRead, ClassSetupLow, ClassSetupHigh} {
		d, release := l.Acquire(c)
		if d.Admitted {
			t.Fatalf("%s admitted on an empty bucket", c)
		}
		if release != nil {
			t.Fatalf("%s shed with non-nil release", c)
		}
		if d.RetryAfter <= 0 {
			t.Errorf("%s shed without a retry-after hint", c)
		}
	}
	d, release := l.Acquire(ClassRecovery)
	if !d.Admitted {
		t.Fatal("recovery shed — teardowns must always make progress")
	}
	release()

	if floor := l.HighPriorityFloor(); floor != 4 {
		t.Errorf("HighPriorityFloor = %d, want 4", floor)
	}

	st := l.Stats()
	// Each drain's terminating attempt plus the explicit probe above.
	if st.Shed["read"] != 2 || st.Shed["setup-low"] != 2 || st.Shed["setup-high"] != 2 {
		t.Errorf("shed counters = %v, want two per non-recovery class", st.Shed)
	}
	if st.Admitted["recovery"] != 1 {
		t.Errorf("recovery admitted counter = %v", st.Admitted)
	}
}

func TestLimiterHighPriorityFloorUnderAdversarialOrder(t *testing.T) {
	// Even if read and low traffic consumes the bucket first, the low
	// reserve leaves floor(Burst/4) tokens only high setups can use.
	clk := NewManualClock()
	l := NewLimiter(LimiterConfig{Rate: 1, Burst: 16, Now: clk.Now})
	drain(l, ClassRead, 100)
	drain(l, ClassSetupLow, 100)
	if got, want := drain(l, ClassSetupHigh, 100), l.HighPriorityFloor(); got < want {
		t.Errorf("high-priority goodput %d below the documented floor %d", got, want)
	}
}

func TestLimiterRetryAfterTracksRefill(t *testing.T) {
	clk := NewManualClock()
	l := NewLimiter(LimiterConfig{Rate: 2, Burst: 4, Now: clk.Now})
	drain(l, ClassSetupHigh, 100) // empty the bucket
	d, _ := l.Acquire(ClassSetupHigh)
	if d.Admitted {
		t.Fatal("admitted on empty bucket")
	}
	// Needs 1 token at 2 tokens/s => 500ms.
	if d.RetryAfter != 500*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 500ms", d.RetryAfter)
	}
	clk.Advance(500 * time.Millisecond)
	d, release := l.Acquire(ClassSetupHigh)
	if !d.Admitted {
		t.Fatalf("still shed after the hinted refill: %+v", d)
	}
	release()
}

func TestLimiterConcurrencyCap(t *testing.T) {
	l := NewLimiter(LimiterConfig{MaxInFlight: 2})
	d1, r1 := l.Acquire(ClassSetupHigh)
	d2, r2 := l.Acquire(ClassSetupHigh)
	if !d1.Admitted || !d2.Admitted {
		t.Fatal("first two not admitted")
	}
	if d, _ := l.Acquire(ClassSetupHigh); d.Admitted {
		t.Fatal("third in-flight admitted past MaxInFlight=2")
	} else if d.Reason != "concurrency" {
		t.Errorf("Reason = %q, want concurrency", d.Reason)
	}
	// Recovery bypasses the window.
	if d, release := l.Acquire(ClassRecovery); !d.Admitted {
		t.Fatal("recovery blocked by the concurrency window")
	} else {
		release()
	}
	r1()
	if d, release := l.Acquire(ClassSetupHigh); !d.Admitted {
		t.Fatal("slot not reusable after release")
	} else {
		release()
	}
	r2()
}

func TestLimiterConcurrentAccounting(t *testing.T) {
	l := NewLimiter(LimiterConfig{MaxInFlight: 4})
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted := 0
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, release := l.Acquire(ClassSetupHigh)
			if d.Admitted {
				mu.Lock()
				admitted++
				mu.Unlock()
				release()
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after all releases, want 0", st.InFlight)
	}
	if got := st.Admitted[ClassSetupHigh.String()]; got != uint64(admitted) {
		t.Errorf("admitted counter %d != observed %d", got, admitted)
	}
	if st.TotalShed()+uint64(admitted) != 64 {
		t.Errorf("admitted %d + shed %d != 64 requests", admitted, st.TotalShed())
	}
}

func TestBackoffHonorsHintAndGrows(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond,
		Jitter: 0.5, Rand: func() float64 { return 0.5 }} // jitter factor 1.0
	if got := b.Next(0); got != 10*time.Millisecond {
		t.Errorf("first delay = %v, want 10ms", got)
	}
	if got := b.Next(0); got != 20*time.Millisecond {
		t.Errorf("second delay = %v, want 20ms", got)
	}
	// The server hint wins when it exceeds the exponential component.
	if got := b.Next(300 * time.Millisecond); got != 300*time.Millisecond {
		t.Errorf("hinted delay = %v, want 300ms", got)
	}
	for i := 0; i < 10; i++ {
		if got := b.Next(0); got > 80*time.Millisecond {
			t.Fatalf("delay %v exceeded Max", got)
		}
	}
}

func TestSleepRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); err != context.Canceled {
		t.Errorf("Sleep on cancelled ctx = %v, want Canceled", err)
	}
	if err := Sleep(context.Background(), time.Microsecond); err != nil {
		t.Errorf("Sleep = %v", err)
	}
}
