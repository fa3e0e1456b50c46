// Fleet-level telemetry. The vcd_fleet_* series describe the pool as a
// whole; per-stream detail stays in Stream.Stats (exposing a label per
// stream id would explode series cardinality at 1k+ streams).
package fleet

import "vdsms/internal/telemetry"

var (
	telStreamsActive = telemetry.Default.Gauge("vcd_fleet_streams_active",
		"Streams currently attached to the fleet pool.")
	telStreamsRejected = telemetry.Default.Counter("vcd_fleet_streams_rejected_total",
		"Attach requests rejected by admission control (limit reached or duplicate id).")
	telPushRejected = telemetry.Default.Counter("vcd_fleet_pushes_rejected_total",
		"Frame batches rejected with backpressure because a stream queue was full.")
	telBatches = telemetry.Default.Counter("vcd_fleet_batches_total",
		"Frame batches accepted into stream queues.")
	telFrames = telemetry.Default.Counter("vcd_fleet_frames_total",
		"Key frames accepted into stream queues.")
	telQueueFrames = telemetry.Default.Gauge("vcd_fleet_queue_frames",
		"Frames queued or in flight across all streams of the pool.")
	telQueueDepth = telemetry.Default.Gauge("vcd_fleet_queue_depth",
		"High-watermark of vcd_fleet_queue_frames — the deepest the pool-wide backlog has ever run.")
	telQueueWait = telemetry.Default.Histogram("vcd_fleet_queue_wait_seconds",
		"Time a pass's frames waited in a stream queue before a runner picked them up.",
		telemetry.DurationBuckets)
	telWorkerHop = telemetry.Default.Histogram("vcd_fleet_worker_hop_seconds",
		"Scheduling hop between a stream entering the ready queue and its pass starting.",
		telemetry.DurationBuckets)
	telPlaneBytes = telemetry.Default.Gauge("vcd_fleet_plane_bytes",
		"Memory footprint of the shared query plane (index, sketches, pre-filter) — paid once, not per stream.")
	telPlaneVersion = telemetry.Default.Gauge("vcd_fleet_plane_version",
		"Current version of the shared copy-on-write query plane.")
	telWorkers = telemetry.Default.Gauge("vcd_fleet_workers",
		"Worker goroutines popping the fleet pool's ready queue; goroutines waiting in Drain or Detach help beside them.")
)
