//! Tracing must not change what the pipeline computes: the timing sink
//! and the span log forward every call unchanged, so a traced pass hands
//! the same frames and bytes through and returns bit-identical graphs.

use e2eprof_core::tracer::{FrameSink, TracerFrame};
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::Nanos;
use perfbench::driver::run_pass;
use perfbench::sink::{payload_len, MeteredSink, SinkMeter};
use perfbench::trace::{lock, shared_log, Layer};
use perfbench::workload::{config, Cadence, MeshShape, Scenario, Transport};
use std::sync::{Arc, Mutex};

/// What reached the wrapped sink: frames, then announced edge sets.
type Seen = (Vec<TracerFrame>, Vec<Vec<(u32, u32)>>);

/// Records what reaches the wrapped sink.
#[derive(Clone, Default)]
struct Recorder(Arc<Mutex<Seen>>);

impl FrameSink for Recorder {
    fn send_frame(&mut self, frame: TracerFrame) -> u64 {
        self.0.lock().expect("recorder").0.push(frame);
        7
    }

    fn announce(&mut self, edges: &[(u32, u32)]) {
        self.0.lock().expect("recorder").1.push(edges.to_vec());
    }
}

fn frames() -> Vec<TracerFrame> {
    vec![
        TracerFrame::Batch {
            payload: vec![1u8, 2, 3].into(),
        },
        TracerFrame::Series {
            edge: (NodeId::new(1), NodeId::new(2)),
            payload: vec![9u8; 10].into(),
        },
    ]
}

#[test]
fn sink_forwards_every_call_and_counts_bytes() {
    for traced in [false, true] {
        let inner = Recorder::default();
        let meter = Arc::new(SinkMeter::default());
        let log = traced.then(shared_log);
        let mut sink = MeteredSink::new(inner.clone(), meter.clone(), log.clone());
        sink.announce(&[(1, 2)]);
        for f in frames() {
            // The inner sink's drop report passes through untouched.
            assert_eq!(sink.send_frame(f), 7);
        }
        let seen = inner.0.lock().expect("recorder");
        assert_eq!(seen.0, frames());
        assert_eq!(seen.1, vec![vec![(1, 2)]]);
        assert_eq!(meter.frames(), 2);
        let bytes: usize = frames().iter().map(payload_len).sum();
        assert_eq!(meter.payload_bytes(), bytes as u64);
        if let Some(log) = log {
            let layers: Vec<Layer> = lock(&log).spans().iter().map(|s| s.layer).collect();
            assert_eq!(
                layers,
                [Layer::LinkAnnounce, Layer::LinkSend, Layer::LinkSend]
            );
        }
    }
}

fn assert_tracing_is_transparent(sc: &Scenario) {
    let plain = run_pass(sc, false);
    let traced = run_pass(sc, true);
    assert_eq!(plain.failed, 0, "{:?}", plain.failures);
    assert_eq!(traced.failed, 0, "{:?}", traced.failures);
    assert!(plain.counts.refreshes > 0 && plain.counts.graphs > 0);
    // Same frames, same bytes, same ingest, bit-identical graphs.
    assert_eq!(plain.counts, traced.counts);
    assert!(plain.ledger.is_none() && plain.spans.is_empty());
    let ledger = traced.ledger.expect("traced pass has a ledger");
    assert!(ledger.step_ns > 0 && ledger.refresh_ns > 0);
}

#[test]
fn traced_tcp_pass_matches_untraced() {
    let sc = Scenario::rubis(
        "short_tcp",
        3,
        100.0,
        config(
            Nanos::from_secs(2),
            Nanos::from_secs(1),
            Nanos::from_secs(1),
        ),
        Transport::Tcp { shards: 2 },
        Cadence {
            end: Nanos::from_secs(8),
            drain_every: Nanos::from_millis(50),
            refresh_every: Nanos::from_secs(1),
            drain_lag: Nanos::from_millis(300),
        },
    );
    assert_tracing_is_transparent(&sc);
    let traced = run_pass(&sc, true);
    let ledger = traced.ledger.expect("ledger");
    assert!(ledger.link_ns > 0 && ledger.broker_ns > 0 && ledger.conn_ns > 0);
}

#[test]
fn traced_in_process_pass_matches_untraced() {
    let sc = Scenario::mesh(
        5,
        MeshShape {
            stacks: 12,
            active: 3,
            rate: 10.0,
            warm: Nanos::from_secs(5),
        },
        config(
            Nanos::from_secs(2),
            Nanos::from_secs(1),
            Nanos::from_secs(1),
        ),
        Cadence {
            end: Nanos::from_secs(10),
            drain_every: Nanos::from_secs(1),
            refresh_every: Nanos::from_secs(1),
            drain_lag: Nanos::from_millis(300),
        },
    );
    assert_tracing_is_transparent(&sc);
    // In process there is no link, broker or connection to time.
    let ledger = run_pass(&sc, true).ledger.expect("ledger");
    assert_eq!(
        (ledger.link_ns, ledger.broker_ns, ledger.conn_ns),
        (0, 0, 0)
    );
}
