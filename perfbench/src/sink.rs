//! The sink wrapper every tracer agent delivers through: it counts the
//! frames and payload bytes handed to the real sink and, in a traced pass
//! over a `TracerLink`, records each `send_frame` / `announce` call as a
//! span. It forwards every call unchanged.

use crate::trace::{lock, Layer, SharedLog};
use e2eprof_core::tracer::{FrameSink, TracerFrame};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Frames and payload bytes handed to the sinks of one tier. The counters
/// are statistics read by the driver thread that also writes them.
#[derive(Debug, Default)]
pub struct SinkMeter {
    frames: AtomicU64,
    payload_bytes: AtomicU64,
}

impl SinkMeter {
    /// Frames handed to a sink.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Wire payload bytes of those frames.
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes.load(Ordering::Relaxed)
    }
}

/// The wire payload a frame carries.
pub fn payload_len(frame: &TracerFrame) -> usize {
    match frame {
        TracerFrame::Series { payload, .. }
        | TracerFrame::Batch { payload }
        | TracerFrame::Backfill { payload } => payload.len(),
    }
}

/// A counting (and, with a span log, timing) [`FrameSink`] around `S`.
pub struct MeteredSink<S> {
    inner: S,
    meter: Arc<SinkMeter>,
    spans: Option<SharedLog>,
}

impl<S: FrameSink> MeteredSink<S> {
    /// Wraps `inner`; `spans` turns on per-call spans.
    pub fn new(inner: S, meter: Arc<SinkMeter>, spans: Option<SharedLog>) -> Self {
        MeteredSink {
            inner,
            meter,
            spans,
        }
    }
}

impl<S: FrameSink> FrameSink for MeteredSink<S> {
    fn send_frame(&mut self, frame: TracerFrame) -> u64 {
        self.meter.frames.fetch_add(1, Ordering::Relaxed);
        self.meter
            .payload_bytes
            .fetch_add(payload_len(&frame) as u64, Ordering::Relaxed);
        let Some(log) = &self.spans else {
            return self.inner.send_frame(frame);
        };
        let start = Instant::now();
        let dropped = self.inner.send_frame(frame);
        lock(log).record(Layer::LinkSend, start, Instant::now());
        dropped
    }

    fn announce(&mut self, edges: &[(u32, u32)]) {
        let Some(log) = &self.spans else {
            return self.inner.announce(edges);
        };
        let start = Instant::now();
        self.inner.announce(edges);
        lock(log).record(Layer::LinkAnnounce, start, Instant::now());
    }
}
