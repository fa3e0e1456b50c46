// Package degrade is the graceful-degradation layer of the detection
// pipeline: it decides, under sustained overload or a damaged input, what
// work to give up so the rest keeps its real-time contract.
//
// Three cooperating pieces:
//
//   - Controller — a closed-loop overload controller. The facade feeds it
//     one observation per basic window (full ingest latency: decode +
//     extract + matching kernel); the controller compares the p99 of a
//     32-window ring against a real-time budget and moves a bounded shed
//     level up or down with hysteresis (consecutive breaches to raise, a
//     longer streak well below budget to lower, fresh evidence collected
//     after every change). Its only setting is the budget.
//
//   - Sampler — content-aware shed decisions at the current level. Frames
//     are ranked by cheap per-frame signals (the DC-delta motion proxy
//     after decode, the payload-size delta before decode) against
//     self-adapting quantile thresholds, so static segments are sampled
//     sparsely and high-motion segments densely; decodes are capped per
//     basic window and extract sheds per run, so no content span goes
//     completely unobserved.
//
//   - RetryReader — absorbs transient (timeout/temporary) read errors from
//     a stalling stream source with capped exponential backoff, so a
//     flaky transport degrades throughput instead of aborting the monitor.
//
// The fault-injection companion package degrade/chaos produces the damaged
// bitstreams and stalling readers the crash/corruption sweep tests feed
// through this layer. See DESIGN.md "Overload & graceful degradation".
package degrade
