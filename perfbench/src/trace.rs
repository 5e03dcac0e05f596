//! Span recording for the traced run, and the per-layer ledger built from
//! the spans.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer's public functions. Every span carries its layer,
//! its start and end (ns since the log was created), the drain step it
//! belongs to (the identifier all spans of one step share) and the index
//! of that step's own span, its parent. Spans stay in memory until the
//! run ends.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One drain step of the driver: every poll, the transport, ingest
    /// and (on refresh steps) the refresh.
    Step,
    /// `TracerAgent::poll` (`core::tracer`), including its sink calls.
    Poll,
    /// `FrameSink::send_frame` on a `TracerLink` (`net::link`, tracer side).
    LinkSend,
    /// `FrameSink::announce` on a `TracerLink`.
    LinkAnnounce,
    /// Waiting for the broker (`net::broker`) to write the step's frames
    /// to every subscriber.
    BrokerWait,
    /// Waiting for every shard's `AnalyzerConn` (`net::link`, analyzer
    /// side) to decode and queue the step's frames.
    ConnWait,
    /// `OnlineAnalyzer::ingest_expected` (`core::analyzer`).
    Ingest,
    /// `OnlineAnalyzer::refresh` (`core::analyzer`).
    Refresh,
}

impl Layer {
    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Step => "driver.step",
            Layer::Poll => "tracer.poll",
            Layer::LinkSend => "link.send_frame",
            Layer::LinkAnnounce => "link.announce",
            Layer::BrokerWait => "broker.wait",
            Layer::ConnWait => "conn.wait",
            Layer::Ingest => "analyzer.ingest",
            Layer::Refresh => "analyzer.refresh",
        }
    }
}

/// Parent index of a step span, which has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary.
    pub layer: Layer,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// The drain step this span belongs to.
    pub step: u32,
    /// Index of the step's span in the log ([`NO_PARENT`] for a step).
    pub parent: u32,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span log of one traced pass.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    step: u32,
    parent: u32,
    spans: Vec<Span>,
}

/// A span log shared between the driver and the timing sinks inside the
/// tracer agents (which must be `Send`). The driver is single-threaded,
/// so the lock is never contended.
pub type SharedLog = Arc<Mutex<SpanLog>>;

/// Creates an empty shared log.
pub fn shared_log() -> SharedLog {
    Arc::new(Mutex::new(SpanLog {
        origin: Instant::now(),
        step: 0,
        parent: NO_PARENT,
        spans: Vec::new(),
    }))
}

/// Locks the log; the driver thread is its only writer, so a poisoned
/// lock means the pass already panicked.
pub fn lock(log: &SharedLog) -> MutexGuard<'_, SpanLog> {
    log.lock().expect("span log poisoned by a panicking pass")
}

impl SpanLog {
    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens the span of drain step `step` at `start`; later spans name
    /// it as their parent until the next step opens.
    pub fn open_step(&mut self, step: u32, start: Instant) {
        let start_ns = self.ns(start);
        self.step = step;
        self.parent = self.spans.len() as u32;
        self.spans.push(Span {
            layer: Layer::Step,
            start_ns,
            end_ns: start_ns,
            step,
            parent: NO_PARENT,
        });
    }

    /// Closes the open step span at `end`.
    pub fn close_step(&mut self, end: Instant) {
        let end_ns = self.ns(end);
        let span = &mut self.spans[self.parent as usize];
        span.end_ns = end_ns;
    }

    /// Records a child span of the open step.
    pub fn record(&mut self, layer: Layer, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            step: self.step,
            parent: self.parent,
        });
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f`, recording it as a `layer` span when `log` is present.
pub fn timed<R>(log: Option<&SharedLog>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match log {
        None => f(),
        Some(log) => {
            let start = Instant::now();
            let out = f();
            let end = Instant::now();
            lock(log).record(layer, start, end);
            out
        }
    }
}

/// Self time per layer, summed over the spans of one or more passes.
///
/// A layer's self time is its spans' duration minus the part its child
/// spans cover: the tracer's poll spans contain the link spans, so the
/// tracer's self time is poll time minus link time. The other layers are
/// disjoint children of the step span; whatever of the step they do not
/// cover is the driver's own, unattributed time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Traced step wall time.
    pub step_ns: u64,
    /// Poll time minus link time.
    pub tracer_ns: u64,
    /// `send_frame` + `announce` time on tracer links.
    pub link_ns: u64,
    /// Time waiting for the broker's fan-out.
    pub broker_ns: u64,
    /// Time waiting for the analyzer connections.
    pub conn_ns: u64,
    /// `ingest_expected` time.
    pub ingest_ns: u64,
    /// `refresh` time.
    pub refresh_ns: u64,
    /// Step time no child span covers.
    pub unattributed_ns: u64,
}

impl Ledger {
    /// Builds the ledger of one span list.
    pub fn from_spans(spans: &[Span]) -> Ledger {
        let mut l = Ledger::default();
        let mut poll = 0u64;
        for s in spans {
            let d = s.duration_ns();
            match s.layer {
                Layer::Step => l.step_ns += d,
                Layer::Poll => poll += d,
                Layer::LinkSend | Layer::LinkAnnounce => l.link_ns += d,
                Layer::BrokerWait => l.broker_ns += d,
                Layer::ConnWait => l.conn_ns += d,
                Layer::Ingest => l.ingest_ns += d,
                Layer::Refresh => l.refresh_ns += d,
            }
        }
        l.tracer_ns = poll.saturating_sub(l.link_ns);
        let covered = poll + l.broker_ns + l.conn_ns + l.ingest_ns + l.refresh_ns;
        l.unattributed_ns = l.step_ns.saturating_sub(covered);
        l
    }

    /// Adds another pass's ledger to this one.
    pub fn absorb(&mut self, other: Ledger) {
        self.step_ns += other.step_ns;
        self.tracer_ns += other.tracer_ns;
        self.link_ns += other.link_ns;
        self.broker_ns += other.broker_ns;
        self.conn_ns += other.conn_ns;
        self.ingest_ns += other.ingest_ns;
        self.refresh_ns += other.refresh_ns;
        self.unattributed_ns += other.unattributed_ns;
    }

    /// `ns` as a share of traced step wall time.
    pub fn share(&self, ns: u64) -> f64 {
        if self.step_ns == 0 {
            0.0
        } else {
            ns as f64 / self.step_ns as f64
        }
    }
}

/// Writes `spans` as CSV (`name,start_ns,end_ns,step,parent`), parent
/// empty for step spans.
pub fn write_csv(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "name,start_ns,end_ns,step,parent")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{},{},{},{},{}",
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.step,
            parent
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, step: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            step,
            parent: 0,
        }
    }

    #[test]
    fn ledger_subtracts_children_and_keeps_the_rest_unattributed() {
        let spans = [
            span(Layer::Step, 0, 100, 1),
            span(Layer::Poll, 0, 40, 1),
            span(Layer::LinkSend, 10, 25, 1),
            span(Layer::Ingest, 40, 50, 1),
            span(Layer::Refresh, 50, 80, 1),
            span(Layer::Refresh, 80, 95, 1),
        ];
        let l = Ledger::from_spans(&spans);
        assert_eq!(l.step_ns, 100);
        assert_eq!(l.tracer_ns, 25);
        assert_eq!(l.link_ns, 15);
        assert_eq!(l.ingest_ns, 10);
        assert_eq!(l.refresh_ns, 45);
        assert_eq!(l.unattributed_ns, 5);
        assert!((l.share(l.refresh_ns) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn log_parents_children_to_the_open_step() {
        let log = shared_log();
        let t0 = Instant::now();
        lock(&log).open_step(7, t0);
        timed(Some(&log), Layer::Ingest, || ());
        lock(&log).close_step(Instant::now());
        let guard = lock(&log);
        let spans = guard.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].layer, spans[0].parent), (Layer::Step, NO_PARENT));
        assert_eq!((spans[1].step, spans[1].parent), (7, 0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let mut csv = Vec::new();
        write_csv(spans, &mut csv).expect("write to memory");
        let text = String::from_utf8(csv).expect("utf-8");
        assert!(text
            .lines()
            .nth(2)
            .expect("child row")
            .starts_with("analyzer.ingest,"));
    }
}
