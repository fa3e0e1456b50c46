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
	telWorkers = telemetry.Default.Gauge("vcd_fleet_workers",
		"Worker goroutines popping the fleet pool's ready queue; goroutines waiting in Drain or Detach help beside them.")
)
