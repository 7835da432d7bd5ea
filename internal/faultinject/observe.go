package faultinject

import (
	"io"
	"time"

	"atmcac/internal/obs"
)

// scrapeEvery paces the scraper: often enough that scrape-time gauge
// reads overlap every phase of a harness run, rarely enough to leave the
// CPU to the fleet. One render takes ~1.6 ms under the race detector (2
// vCPUs), so the sixteen processes of two parallel HAShard runs spend a
// tenth of two cores on it; at a 5 ms pace they starved the fleet into
// spurious coordinator failovers.
const scrapeEvery = 100 * time.Millisecond

// procObs is the observability wiring cacd installs in every process: a
// metrics registry, a tracer counting into it, and a Prometheus scraper,
// played here by a goroutine rendering the /metrics text in a loop. Every
// deadlock found so far in the shippers was an observability read racing
// a data-path lock, so each harness process carries all three.
type procObs struct {
	reg    *obs.Registry
	tracer *obs.MetricsTracer
	stop   chan struct{}
	done   chan struct{}
}

// newProcObs builds one process's wiring and starts its scraper; close
// stops the scraper and waits for it.
func newProcObs() *procObs {
	reg := obs.NewRegistry()
	o := &procObs{reg: reg, tracer: obs.NewMetricsTracer(reg), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(o.done)
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-tick.C:
				_ = o.reg.WritePrometheus(io.Discard) // io.Discard never fails
			}
		}
	}()
	return o
}

func (o *procObs) close() {
	close(o.stop)
	<-o.done
}
