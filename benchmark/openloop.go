package main

import (
	"sync"
	"syscall"
	"time"
)

// clock is the time source of the open-loop scheduler; tests substitute a
// virtual one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep blocks in nanosleep(2) rather than time.Sleep: an idle Go runtime
// waits for its timers in epoll with millisecond granularity, so
// time.Sleep of 300 µs returns after 1.1 ms, which is most of the 1 ms the
// generator is allowed to run late; nanosleep overshoots by about 0.1 ms.
// A signal (the runtime preempts with them) ends it early, hence the loop.
func (wallClock) Sleep(d time.Duration) {
	for end := time.Now().Add(d); d > 0; d = time.Until(end) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// openStep is one fixed-rate step of an open loop.
type openStep struct {
	rate   float64 // requests per second offered
	sent   int
	failed int  // errored, or never sent because the step overran its limit
	lat    hist // completion time minus due time
	late   hist // send time minus due time: how far behind the generator ran
}

// runOpenStep offers n requests at a fixed rate: request i is due at
// start + i/rate whatever happened to the requests before it, and its
// latency is counted from that due time, so a stall in the service is
// charged to every request that queued behind it — as independent remote
// users would experience it — and not only to the one request a closed
// loop would have had in flight. workers bounds the requests in flight
// (one connection each). A step that has not finished by limit gives up;
// what it did not send counts as failed.
func runOpenStep(clk clock, rate float64, n, workers int, limit time.Duration, send func(i int) error) *openStep {
	st := &openStep{rate: rate}
	interval := time.Duration(float64(time.Second) / rate)
	start := clk.Now()
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				now := clk.Now()
				if now.Before(due) {
					clk.Sleep(due.Sub(now))
					now = clk.Now()
				}
				if now.Sub(start) > limit {
					mu.Lock()
					st.failed++
					mu.Unlock()
					continue
				}
				err := send(i)
				end := clk.Now()
				mu.Lock()
				st.sent++
				if err != nil {
					st.failed++
				} else {
					st.lat.add(end.Sub(due))
				}
				st.late.add(now.Sub(due))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return st
}

// openLatencyLimit is the p99 from due time a step must keep to count as
// sustained. The issue proposed 2 ms and a separate 1 ms limit on
// generator lateness, to be recalibrated once against measurement: on the
// reference host the load generator shares two CPUs and one Go heap with
// the server, and a collection cycle stalls both for 5-8 ms a few times a
// second, which alone puts p99 from due time at 3-9 ms at every rate below
// the knee. Past the knee (between 4500 and 6000 requests/s) it jumps to
// 30-110 ms. 20 ms separates the two regimes on every run seen. Lateness is
// reported but not limited separately: with two connections the generator
// is late exactly when the service holds both, so lateness is already part
// of the latency that is limited.
const openLatencyLimit = 20 * time.Millisecond

// openRate is one offered rate, measured in openParts consecutive parts so
// that leaving one out shows how much the rate's p99 rests on a single
// stall.
type openRate struct {
	rate  float64
	parts []*openStep
}

const openParts = 3

// poolSteps is the parts taken as one.
func poolSteps(parts []*openStep) *openStep {
	all := &openStep{}
	for _, p := range parts {
		all.rate = p.rate
		all.sent += p.sent
		all.failed += p.failed
		all.lat.merge(&p.lat)
		all.late.merge(&p.late)
	}
	return all
}

func (r *openRate) pooled() *openStep { return poolSteps(r.parts) }

func (st *openStep) sustained() bool {
	return st.failed == 0 && st.lat.quantile(0.99) <= float64(openLatencyLimit)
}

// openRates are the offered rates in requests per second: about 17, 34,
// 51, 68 and 85% of the ~8.8k/s two closed-loop connections reach on the
// reference host. openReportRate is the step whose p99 is open_p99_us.
var openRates = []float64{1500, 3000, 4500, 6000, 7500}

const openReportRate = 3000

// maxRateOK is the highest rate of a prefix of sustained steps: a rate
// above one that failed does not count even if it happened to pass.
func maxRateOK(rates []*openRate) float64 {
	best := 0.0
	for _, r := range rates {
		if !r.pooled().sustained() {
			break
		}
		best = r.rate
	}
	return best
}
