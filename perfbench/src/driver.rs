//! The closed-loop driver: builds the tracer/transport/analyzer tier of a
//! scenario from public calls and replays the scenario's captures through
//! it, one drain step at a time, on one thread.
//!
//! Each step repeats `DistributedPipeline::step`'s call order without its
//! `sim.run_until` (the simulation already ran, outside the timed
//! region): poll every agent, count the frames that crossed the sinks,
//! have every shard `ingest_expected` that many, and on refresh steps
//! `refresh` every shard and concatenate the graphs in shard order. The
//! next step starts only after the previous one returned.

use crate::sink::{MeteredSink, SinkMeter};
use crate::trace::{lock, shared_log, timed, Layer, Ledger, SharedLog, Span};
use crate::workload::{Scenario, Transport};
use e2eprof_core::analyzer::OnlineAnalyzer;
use e2eprof_core::graph::{NodeLabels, ServiceGraph};
use e2eprof_core::parallel::shard_ranges;
use e2eprof_core::pathmap::roots_from_topology;
use e2eprof_core::tracer::{ChannelSink, FrameSink, TracerAgent};
use e2eprof_net::{
    AnalyzerConn, BoundEndpoint, BrokerConfig, BrokerHandle, Endpoint, LinkConfig, TracerLink,
};
use e2eprof_netsim::NodeId;
use e2eprof_timeseries::Nanos;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The broker side of a socket tier.
struct NetTier {
    _endpoint: BoundEndpoint,
    broker: BrokerHandle,
    ring_capacity: usize,
    conns: Vec<AnalyzerConn>,
    /// Per-link count of frames fully written to the broker.
    delivered: Vec<Arc<AtomicU64>>,
    redials: Vec<Arc<AtomicU64>>,
}

impl NetTier {
    fn written(&self) -> u64 {
        self.delivered
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .sum()
    }
}

/// An assembled tier: one agent per service node, the transport, and the
/// analyzer shards.
pub struct Tier {
    agents: Vec<TracerAgent>,
    shards: Vec<OnlineAnalyzer>,
    meter: Arc<SinkMeter>,
    net: Option<NetTier>,
}

impl Tier {
    /// Builds the scenario's tier and returns it with its set-up time:
    /// from endpoint bind and broker spawn until every link is connected
    /// and every shard's subscription is registered. `spans` makes the
    /// link sinks record spans.
    pub fn setup(sc: &Scenario, spans: Option<&SharedLog>) -> (Tier, Duration) {
        let started = Instant::now();
        let topo = sc.sim().topology();
        let clients: HashSet<NodeId> = topo.clients().into_iter().collect();
        let roots = roots_from_topology(topo);
        let labels = NodeLabels::from_topology(topo);
        let meter = Arc::new(SinkMeter::default());
        let agent = |node, sink: Box<dyn FrameSink>| {
            TracerAgent::with_sink(node, clients.clone(), sc.config.clone(), sink)
        };
        let tier = match sc.transport {
            Transport::InProcess => {
                let (tx, rx) = crossbeam::channel::unbounded();
                let agents = topo
                    .services()
                    .into_iter()
                    .map(|node| {
                        let sink = MeteredSink::new(ChannelSink(tx.clone()), meter.clone(), None);
                        agent(node, Box::new(sink))
                    })
                    .collect();
                let analyzer = OnlineAnalyzer::new(sc.config.clone(), roots, labels, rx);
                Tier {
                    agents,
                    shards: vec![analyzer],
                    meter,
                    net: None,
                }
            }
            Transport::Tcp { shards } => {
                let endpoint = Endpoint::Tcp.bind().expect("bind a loopback TCP port");
                let broker_config = BrokerConfig::default();
                let ring_capacity = broker_config.ring_capacity;
                let broker = BrokerHandle::spawn(endpoint.acceptor(), broker_config);
                let link_config = LinkConfig::default();
                let mut agents = Vec::new();
                let mut delivered = Vec::new();
                let mut redials = Vec::new();
                for node in topo.services() {
                    let mut link = TracerLink::new(
                        node.index() as u32,
                        endpoint.dialer(),
                        link_config.clone(),
                    );
                    // Links dial lazily; an empty announce connects this
                    // one now, so set-up ends with every link live.
                    link.announce(&[]);
                    delivered.push(link.delivered_handle());
                    redials.push(link.redials_handle());
                    let sink = MeteredSink::new(link, meter.clone(), spans.cloned());
                    agents.push(agent(node, Box::new(sink)));
                }
                let universe: HashSet<NodeId> = roots.iter().map(|&(c, _)| c).collect();
                let ranges = shard_ranges(roots.len(), shards);
                let of = ranges.len() as u32;
                let mut conns = Vec::new();
                let mut analyzers = Vec::new();
                for (i, range) in ranges.into_iter().enumerate() {
                    let (conn, rx) =
                        AnalyzerConn::spawn(endpoint.dialer(), i as u32, of, link_config.clone());
                    conns.push(conn);
                    analyzers.push(OnlineAnalyzer::with_universe(
                        sc.config.clone(),
                        roots[range].to_vec(),
                        universe.clone(),
                        labels.clone(),
                        rx,
                    ));
                }
                while broker.subscriber_count() < of as usize {
                    std::thread::yield_now();
                }
                Tier {
                    agents,
                    shards: analyzers,
                    meter,
                    net: Some(NetTier {
                        _endpoint: endpoint,
                        broker,
                        ring_capacity,
                        conns,
                        delivered,
                        redials,
                    }),
                }
            }
        };
        (tier, started.elapsed())
    }

    /// Frames that have crossed the sinks: fully written to the broker
    /// over sockets, handed to the channel in process.
    fn written(&self) -> u64 {
        match &self.net {
            Some(net) => net.written(),
            None => self.meter.frames(),
        }
    }

    /// Tears the tier down: broker first (wakes blocked readers), then
    /// the analyzer connections, then the agents' links.
    pub fn shutdown(self) {
        if let Some(mut net) = self.net {
            net.broker.shutdown();
            for conn in &mut net.conns {
                conn.stop();
            }
        }
        drop(self.agents);
    }
}

/// Counts that depend on the seed alone: every pass over one scenario
/// must produce the same values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Messages captured by the simulated deployment.
    pub messages: u64,
    /// Frames the agents handed to their sinks.
    pub frames: u64,
    /// Frames the sinks reported evicted under backpressure.
    pub frames_dropped: u64,
    /// Payload bytes of those frames.
    pub payload_bytes: u64,
    /// Frames every `TracerLink` fully wrote (0 in process).
    pub link_delivered: u64,
    /// Link reconnects.
    pub link_redials: u64,
    /// Frames ingested, summed over shards.
    pub frames_ingested: u64,
    /// Frame writes from the broker to subscribers.
    pub broker_delivered: u64,
    /// Frames evicted from the broker's replay ring.
    pub ring_dropped: u64,
    /// Inbound frames the broker rejected as duplicates.
    pub duplicates_rejected: u64,
    /// Frames the analyzer connections queued, summed over shards.
    pub conn_delivered: u64,
    /// Replayed frames the connections discarded.
    pub conn_duplicates: u64,
    /// Framing errors the connections saw.
    pub conn_decode_errors: u64,
    /// Connection reconnects.
    pub conn_reconnects: u64,
    /// Refreshes after the window filled (the checked ones).
    pub refreshes: u64,
    /// Graphs those refreshes returned.
    pub graphs: u64,
    /// Correlation buffers reused, summed over shards.
    pub scratch_reused: u64,
    /// Correlation buffers allocated, summed over shards.
    pub scratch_allocated: u64,
    /// Digest of every returned graph, bit for bit.
    pub digest: u64,
}

/// Useful-work ratios of the analyzer's optional tiers, from the last
/// refresh; `None` while a tier is off.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fractions {
    /// Screening: candidate pairs pruned.
    pub screen_pruned: Option<f64>,
    /// Activity gate: fine pairs skipped.
    pub fine_skipped: Option<f64>,
    /// Activity gate: root graphs reused.
    pub roots_reused: Option<f64>,
}

/// What one pass over a scenario measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Set-up time of the pass's tier.
    pub setup: Duration,
    /// Per drain step: its wall time, refresh included.
    pub step_ms: Vec<f64>,
    /// Per drain step: first poll until every shard ingested the frames.
    pub flush_ms: Vec<f64>,
    /// Per checked refresh: start of its drain until every shard's graphs
    /// returned.
    pub time_to_graph_ms: Vec<f64>,
    /// Per checked refresh: the refresh calls alone.
    pub refresh_ms: Vec<f64>,
    /// Deterministic counts.
    pub counts: Counts,
    /// Optional-tier ratios.
    pub fractions: Fractions,
    /// Checked refreshes that failed a check.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Per-layer self times (traced passes).
    pub ledger: Option<Ledger>,
    /// The recorded spans (traced passes).
    pub spans: Vec<Span>,
}

/// FNV-1a over a canonical rendering of each refresh's graphs.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn graphs(&mut self, graphs: &[ServiceGraph]) {
        self.word(graphs.len() as u64);
        for g in graphs {
            self.word(g.client.index() as u64);
            self.word(g.root.index() as u64);
            let mut vertices: Vec<_> = g
                .vertices()
                .iter()
                .map(|v| (v.node, v.bottleneck, v.contribution))
                .collect();
            vertices.sort();
            for (node, bottleneck, contribution) in vertices {
                self.word(node.index() as u64);
                self.word(bottleneck as u64);
                self.word(contribution.map_or(u64::MAX, Nanos::as_nanos));
            }
            let mut edges: Vec<_> = g.edges().iter().collect();
            edges.sort_by_key(|e| (e.from, e.to));
            for e in edges {
                self.word(e.from.index() as u64);
                self.word(e.to.index() as u64);
                self.word(e.hop_delay.as_nanos());
                for s in &e.spikes {
                    self.word(s.delay.as_nanos());
                    self.word(s.strength.to_bits());
                }
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Replays the scenario once through a fresh tier; `traced` records spans.
pub fn run_pass(sc: &Scenario, traced: bool) -> Pass {
    let log = traced.then(shared_log);
    let log = log.as_ref();
    let (mut tier, setup) = Tier::setup(sc, log);
    let captures = sc.sim().captures();
    let cfg = &sc.config;
    let quanta = cfg.quanta();
    let cadence = sc.cadence;
    let per_refresh = cadence.drains_per_refresh();
    let filled_at = cfg.max_lag() + cfg.window_ticks();

    let mut pass = Pass {
        traced,
        setup,
        step_ms: Vec::new(),
        flush_ms: Vec::new(),
        time_to_graph_ms: Vec::new(),
        refresh_ms: Vec::new(),
        counts: Counts::default(),
        fractions: Fractions::default(),
        failed: 0,
        failures: Vec::new(),
        ledger: None,
        spans: Vec::new(),
    };
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut ingested = vec![0u64; tier.shards.len()];
    let mut expected = 0u64;
    for k in 1..=cadence.steps() {
        let now = Nanos::from_nanos(cadence.drain_every.as_nanos() * k);
        let drain = quanta.tick_of(now.saturating_sub(cadence.drain_lag));
        let refreshing = k % per_refresh == 0;

        let start = Instant::now();
        if let Some(log) = log {
            lock(log).open_step(k as u32, start);
        }
        for agent in &mut tier.agents {
            timed(log, Layer::Poll, || agent.poll(captures, drain));
        }
        let written = tier.written();
        let arriving = written - expected;
        expected = written;
        if let (Some(log), Some(net)) = (log, &tier.net) {
            // Traced only: split the transport's latency into the broker's
            // fan-out and the connections' decode, so that ingest below
            // starts with its frames already queued.
            let fanout = written * net.conns.len() as u64;
            timed(Some(log), Layer::BrokerWait, || {
                while net.broker.delivered() < fanout {
                    std::thread::yield_now();
                }
            });
            timed(Some(log), Layer::ConnWait, || {
                for conn in &net.conns {
                    while conn.stats().delivered.load(Ordering::Relaxed) < written {
                        std::thread::yield_now();
                    }
                }
            });
        }
        for (shard, total) in tier.shards.iter_mut().zip(&mut ingested) {
            *total += timed(log, Layer::Ingest, || {
                shard.ingest_expected(arriving as usize)
            }) as u64;
        }
        let flushed = Instant::now();
        let mut graphs = Vec::new();
        if refreshing {
            for shard in &mut tier.shards {
                graphs.extend(timed(log, Layer::Refresh, || shard.refresh(now)));
            }
        }
        let end = Instant::now();
        if let Some(log) = log {
            lock(log).close_step(end);
        }

        pass.step_ms.push(ms(end - start));
        pass.flush_ms.push(ms(flushed - start));
        if !refreshing || drain.index() < filled_at {
            continue;
        }
        pass.time_to_graph_ms.push(ms(end - start));
        pass.refresh_ms.push(ms(end - flushed));
        pass.counts.refreshes += 1;
        pass.counts.graphs += graphs.len() as u64;
        digest.graphs(&graphs);
        let window_end = quanta.instant_of(drain).saturating_sub(cfg.max_delay());
        let window = (window_end.saturating_sub(cfg.window()), window_end);
        let verdict = sc
            .truth
            .check(&graphs, window)
            .and_then(|()| tier.conservation(written, &ingested));
        if let Err(reason) = verdict {
            pass.failed += 1;
            if pass.failures.len() < 5 {
                pass.failures.push(format!("refresh at {now:?}: {reason}"));
            }
        }
    }

    pass.counts.messages = sc.messages();
    pass.counts.frames = tier.agents.iter().map(TracerAgent::frames_emitted).sum();
    pass.counts.frames_dropped = tier.agents.iter().map(TracerAgent::frames_dropped).sum();
    pass.counts.payload_bytes = tier.meter.payload_bytes();
    pass.counts.frames_ingested = ingested.iter().sum();
    pass.counts.digest = digest.0;
    for shard in &tier.shards {
        let scratch = shard.scratch_counters();
        pass.counts.scratch_reused += scratch.reused;
        pass.counts.scratch_allocated += scratch.allocated;
    }
    if let Some(net) = &tier.net {
        let c = &mut pass.counts;
        c.link_delivered = net.written();
        c.link_redials = net.redials.iter().map(|r| r.load(Ordering::Relaxed)).sum();
        c.broker_delivered = net.broker.delivered();
        c.ring_dropped = net.broker.ring_dropped();
        c.duplicates_rejected = net.broker.duplicates_rejected();
        for conn in &net.conns {
            let s = conn.stats();
            c.conn_delivered += s.delivered.load(Ordering::Relaxed);
            c.conn_duplicates += s.duplicates.load(Ordering::Relaxed);
            c.conn_decode_errors += s.decode_errors.load(Ordering::Relaxed);
            c.conn_reconnects += s.reconnects.load(Ordering::Relaxed);
        }
    }
    pass.fractions = tier.fractions();
    tier.shutdown();
    if let Some(log) = log {
        let spans = lock(log).spans().to_vec();
        pass.ledger = Some(Ledger::from_spans(&spans));
        pass.spans = spans;
    }
    pass
}

impl Tier {
    /// Frame conservation so far: every frame that crossed the sinks was
    /// ingested by every shard, and nothing was dropped, evicted,
    /// duplicated or undecodable on the way.
    fn conservation(&self, written: u64, ingested: &[u64]) -> Result<(), String> {
        let emitted: u64 = self.agents.iter().map(TracerAgent::frames_emitted).sum();
        let dropped: u64 = self.agents.iter().map(TracerAgent::frames_dropped).sum();
        if emitted != written || dropped != 0 {
            return Err(format!(
                "{emitted} frames emitted, {written} delivered, {dropped} dropped"
            ));
        }
        if let Some(shard) = ingested.iter().position(|&n| n != written) {
            return Err(format!(
                "shard {shard} ingested {} of {written} frames",
                ingested[shard]
            ));
        }
        if let Some(net) = &self.net {
            // The replay ring evicts its oldest frame whenever it is full,
            // so past its capacity every admitted frame evicts one that
            // every subscriber already read. Any other eviction is a loss.
            let retention = written.saturating_sub(net.ring_capacity as u64);
            let broker = (net.broker.ring_dropped(), net.broker.duplicates_rejected());
            if broker != (retention, 0) {
                return Err(format!(
                    "broker ring evictions / duplicates {broker:?}, expected ({retention}, 0)"
                ));
            }
            for (i, conn) in net.conns.iter().enumerate() {
                let s = conn.stats();
                let errs = (
                    s.duplicates.load(Ordering::Relaxed),
                    s.decode_errors.load(Ordering::Relaxed),
                );
                if errs != (0, 0) {
                    return Err(format!("shard {i} duplicates / decode errors {errs:?}"));
                }
            }
        }
        Ok(())
    }

    fn fractions(&self) -> Fractions {
        let mut f = Fractions::default();
        let screening: Vec<_> = self
            .shards
            .iter()
            .filter_map(|s| s.screening_stats())
            .collect();
        if !screening.is_empty() {
            let (candidates, pruned) = screening
                .iter()
                .fold((0, 0), |(c, p), s| (c + s.candidates, p + s.pruned));
            f.screen_pruned = Some(ratio(pruned, candidates));
        }
        let incremental: Vec<_> = self
            .shards
            .iter()
            .filter_map(|s| s.incremental_stats())
            .collect();
        if !incremental.is_empty() {
            let sum = |pick: fn(&e2eprof_core::pathmap::IncrementalStats) -> u64| {
                incremental.iter().map(pick).sum::<u64>()
            };
            f.fine_skipped = Some(ratio(sum(|s| s.fine_skipped), sum(|s| s.fine_pairs)));
            f.roots_reused = Some(ratio(sum(|s| s.reused_roots), sum(|s| s.roots)));
        }
        f
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Builds and tears down the scenario's tier without driving it, for
/// extra set-up samples.
pub fn setup_only(sc: &Scenario) -> Duration {
    let (tier, setup) = Tier::setup(sc, None);
    tier.shutdown();
    setup
}
