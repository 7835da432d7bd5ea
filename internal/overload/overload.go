// Package overload implements control-plane overload protection for the
// central CAC server: a token-bucket + concurrency limiter with
// priority-aware shedding, and bounded exponential backoff with jitter for
// clients.
//
// The paper's admission control (Section 4.3) protects the data plane —
// once admitted, a connection's delay bound holds — but a setup storm can
// saturate the control plane itself and delay or drop the admission
// decisions hard real-time callers depend on. This package makes the
// degradation explicit and ordered: read-only operations are shed first,
// then low-priority setups, then high-priority setups; teardown and
// link-failure recovery are never shed, so the control plane can always
// unload itself. A shed request receives a typed "overloaded" answer with
// a retry-after hint, never a hang or a silent drop.
package overload

import (
	"sync"
	"time"
)

// Class orders control-plane operations by shedding priority. Lower
// values degrade last.
type Class int

const (
	// ClassRecovery covers operations that reduce or repair load —
	// teardown, fail-link, restore-link — plus the health probe operators
	// need to observe an overload. Never shed.
	ClassRecovery Class = iota
	// ClassSetupHigh is a priority-1 (hard real-time) connection setup.
	ClassSetupHigh
	// ClassSetupLow is a setup at priority 2 or below.
	ClassSetupLow
	// ClassRead is a read-only query: list, bound, inspect, audit.
	// Shed first.
	ClassRead

	numClasses
)

// String names the class for counters and error messages.
func (c Class) String() string {
	switch c {
	case ClassRecovery:
		return "recovery"
	case ClassSetupHigh:
		return "setup-high"
	case ClassSetupLow:
		return "setup-low"
	case ClassRead:
		return "read"
	default:
		return "unknown"
	}
}

// reserveFraction is the share of the token bucket kept out of reach of
// this class: a class is admitted only while the bucket holds more than
// reserveFraction*Burst tokens. Reads see the largest reserve (shed
// first); high-priority setups may drain the bucket to empty; recovery
// ignores the bucket entirely.
func (c Class) reserveFraction() float64 {
	switch c {
	case ClassSetupLow:
		return 0.25
	case ClassRead:
		return 0.5
	default:
		return 0
	}
}

// Clock abstracts time for deterministic tests.
type Clock func() time.Time

// ManualClock is a hand-advanced clock for deterministic overload
// injection: time moves only when the harness says so. Safe for
// concurrent use.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock starts a manual clock at an arbitrary fixed origin.
func NewManualClock() *ManualClock {
	return &ManualClock{t: time.Unix(0, 0)}
}

// Now returns the current manual time.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
