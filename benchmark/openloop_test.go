package main

import (
	"testing"
	"time"
)

// fakeClock is virtual time for a single-worker open loop: Sleep and the
// fake target advance it, nothing else does.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// An open loop times every request from when it was due, so a stall in the
// target is charged to the requests that queued behind it. 10 requests at
// 1000/s (due every 1 ms), each served in 100 µs except request 3, which
// stalls 5 ms: request 3 is sent on time at t=3 ms and completes at 8 ms;
// requests 4..8 were due at 4..8 ms but go out back to back from 8 ms on.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	var lat []time.Duration
	start := clk.now
	st := runOpenStep(clk, 1000, 10, 1, time.Second, func(i int) error {
		service := 100 * time.Microsecond
		if i == 3 {
			service = 5 * time.Millisecond
		}
		clk.Sleep(service)
		lat = append(lat, clk.now.Sub(start.Add(time.Duration(i)*time.Millisecond)))
		return nil
	})
	want := []time.Duration{
		100 * time.Microsecond, 100 * time.Microsecond, 100 * time.Microsecond,
		5 * time.Millisecond,    // the stalled request itself
		4100 * time.Microsecond, // due at 4 ms, sent at 8 ms
		3200 * time.Microsecond, // due at 5 ms, sent at 8.1 ms
		2300 * time.Microsecond,
		1400 * time.Microsecond,
		500 * time.Microsecond,
		100 * time.Microsecond, // due at 9 ms, the backlog is gone
	}
	for i, w := range want {
		if lat[i] != w {
			t.Errorf("request %d: latency from due time %v, want %v", i, lat[i], w)
		}
	}
	if st.sent != 10 || st.failed != 0 {
		t.Fatalf("sent %d, failed %d; want 10, 0", st.sent, st.failed)
	}
	// A closed loop would have reported 100 µs for nine of ten requests.
	if got := time.Duration(st.lat.quantile(0.5)); got < 400*time.Microsecond {
		t.Errorf("median from due time %v: the stall was not charged to the queue behind it", got)
	}
	// The generator was up to 4 ms behind its schedule, and says so.
	if got := time.Duration(st.late.quantile(1)); got < 3900*time.Microsecond || got > 4100*time.Microsecond {
		t.Errorf("worst generator lateness %v, want about 4 ms", got)
	}
}

// A step that overruns its limit gives up and counts the rest as failed.
func TestOpenLoopGivesUpAtLimit(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	st := runOpenStep(clk, 1000, 100, 1, 20*time.Millisecond, func(int) error {
		clk.Sleep(2 * time.Millisecond) // twice the interval: the backlog only grows
		return nil
	})
	if st.sent+st.failed != 100 || st.failed == 0 || st.sustained() {
		t.Fatalf("sent %d, failed %d, sustained %t; want 100 in total, some failed, not sustained",
			st.sent, st.failed, st.sustained())
	}
}

func TestMaxRateOKStopsAtFirstFailure(t *testing.T) {
	good := func(rate float64) *openRate {
		st := &openStep{rate: rate}
		st.lat.add(time.Millisecond)
		return &openRate{rate: rate, parts: []*openStep{st}}
	}
	bad := good(3000)
	bad.parts[0].failed = 1
	if got := maxRateOK([]*openRate{good(1500), bad, good(4500)}); got != 1500 {
		t.Fatalf("maxRateOK = %g, want 1500: a rate above a failed one does not count", got)
	}
}
