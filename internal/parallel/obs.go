package parallel

import (
	"time"

	"extrapdnn/internal/obs"
)

// Worker-pool telemetry. Clock reads only happen when metrics are on
// (runItem/dispatchCtx check obs.MetricsEnabled first), so the disabled path
// stays a plain function call per item.
var (
	obsItems = obs.NewCounter("extrapdnn_parallel_items_total",
		"Work items executed by the parallel worker pools.")
	obsWorkerBusyNS = obs.NewCounter("extrapdnn_parallel_worker_busy_ns_total",
		"Cumulative wall time workers spent executing items (nanoseconds); divide by items for mean item cost, by elapsed*workers for utilization.")
	obsDispatchWaitNS = obs.NewCounter("extrapdnn_parallel_dispatch_wait_ns_total",
		"Cumulative time the dispatcher blocked waiting for a free worker (nanoseconds) — backpressure from slow items.")
	obsActiveWorkers = obs.NewGauge("extrapdnn_parallel_active_workers",
		"Worker goroutines currently executing an item.")
	obsStreamItems = obs.NewCounter("extrapdnn_parallel_stream_items_total",
		"Items dispatched by the bounded streaming pipeline (parallel.Stream).")
	obsStreamReorderHeld = obs.NewCounter("extrapdnn_parallel_stream_reorder_held_total",
		"Stream results that completed out of input order and waited in the reorder buffer.")
)

// runItem executes one work item, wrapped in per-item telemetry when metrics
// are enabled.
func runItem(i int, fn func(i int)) {
	if !obs.MetricsEnabled() {
		fn(i)
		return
	}
	obsActiveWorkers.Add(1)
	start := time.Now()
	fn(i)
	obsWorkerBusyNS.Add(uint64(time.Since(start).Nanoseconds()))
	obsActiveWorkers.Add(-1)
	obsItems.Inc()
}

// dispatchCtx sends i to the worker channel, accounting the blocking time as
// dispatcher wait when metrics are enabled; it reports whether i was handed
// to a worker (false: done fired first).
func dispatchCtx(next chan<- int, done <-chan struct{}, i int) bool {
	if !obs.MetricsEnabled() {
		select {
		case next <- i:
			return true
		case <-done:
			return false
		}
	}
	start := time.Now()
	select {
	case next <- i:
		obsDispatchWaitNS.Add(uint64(time.Since(start).Nanoseconds()))
		return true
	case <-done:
		return false
	}
}
