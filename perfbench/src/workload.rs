//! The benchmark's workloads: a simulated deployment, generated from the
//! seed and run to its end before any timing starts, plus the analysis
//! configuration, transport and step cadence the driver replays it with.

use crate::check::Truth;
use e2eprof_apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof_core::config::PathmapConfig;
use e2eprof_netsim::prelude::*;
use e2eprof_timeseries::Quanta;
use std::time::{Duration, Instant};

/// Names accepted by [`Scenario::build`], in report order.
pub const WORKLOADS: [&str; 3] = ["rubis_stream_tcp", "mesh_idle", "rubis_longlag"];

/// How tracer frames reach the analyzer tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One analyzer fed by an in-process channel (`ChannelSink`).
    InProcess,
    /// `TracerLink`s over loopback TCP into a `Broker`, fanned out to
    /// `shards` analyzers, each on its own `AnalyzerConn`.
    Tcp {
        /// Analyzer shards; every shard ingests every frame.
        shards: usize,
    },
}

/// When the driver drains and refreshes, in simulated time.
#[derive(Debug, Clone, Copy)]
pub struct Cadence {
    /// Simulated time of the last step.
    pub end: Nanos,
    /// Tracers drain every this much simulated time.
    pub drain_every: Nanos,
    /// The analyzer refreshes every this much (a multiple of
    /// `drain_every`).
    pub refresh_every: Nanos,
    /// A drain at `now` covers captures up to `now - drain_lag`.
    pub drain_lag: Nanos,
}

impl Cadence {
    /// Drain steps in the run.
    pub fn steps(&self) -> u64 {
        self.end.as_nanos() / self.drain_every.as_nanos()
    }

    /// Drain steps per refresh.
    pub fn drains_per_refresh(&self) -> u64 {
        self.refresh_every.as_nanos() / self.drain_every.as_nanos()
    }
}

enum Deployment {
    Rubis(Box<Rubis>),
    Mesh(Box<Simulation>),
}

/// One generated workload, ready to be replayed any number of times.
pub struct Scenario {
    /// Workload name.
    pub name: &'static str,
    deployment: Deployment,
    /// Analysis configuration: only τ, ω, W, ΔW and T_u are set.
    pub config: PathmapConfig,
    /// Transport between tracers and analyzers.
    pub transport: Transport,
    /// Step cadence.
    pub cadence: Cadence,
    /// Expected edges per client.
    pub truth: Truth,
    /// Wall time the generator took.
    pub gen_time: Duration,
}

/// The analysis configuration: τ = 1 ms and ω = 50 τ as in the paper's
/// RUBiS runs, with the given W, ΔW and T_u. Every other setting keeps
/// its default, and the environment is never consulted.
pub fn config(window: Nanos, refresh: Nanos, max_delay: Nanos) -> PathmapConfig {
    PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(window)
        .refresh(refresh)
        .max_delay(max_delay)
        .build()
}

impl Scenario {
    /// The named workload at its full size, generated from `seed`.
    pub fn build(name: &str, seed: u64) -> Option<Scenario> {
        let lag = Nanos::from_millis(300);
        Some(match name {
            "rubis_stream_tcp" => Scenario::rubis(
                "rubis_stream_tcp",
                seed,
                100.0,
                config(
                    Nanos::from_secs(10),
                    Nanos::from_secs(1),
                    Nanos::from_secs(1),
                ),
                Transport::Tcp { shards: 2 },
                Cadence {
                    end: Nanos::from_secs(120),
                    drain_every: Nanos::from_millis(10),
                    refresh_every: Nanos::from_secs(1),
                    drain_lag: lag,
                },
            ),
            "mesh_idle" => Scenario::mesh(
                seed,
                MeshShape {
                    stacks: 560,
                    active: 24,
                    rate: 10.0,
                    warm: Nanos::from_secs(12),
                },
                config(
                    Nanos::from_secs(10),
                    Nanos::from_secs(2),
                    Nanos::from_secs(1),
                ),
                Cadence {
                    end: Nanos::from_secs(220),
                    drain_every: Nanos::from_secs(2),
                    refresh_every: Nanos::from_secs(2),
                    drain_lag: lag,
                },
            ),
            "rubis_longlag" => Scenario::rubis(
                "rubis_longlag",
                seed,
                10.0,
                config(
                    Nanos::from_secs(60),
                    Nanos::from_secs(5),
                    Nanos::from_secs(30),
                ),
                Transport::InProcess,
                Cadence {
                    end: Nanos::from_secs(590),
                    drain_every: Nanos::from_secs(5),
                    refresh_every: Nanos::from_secs(5),
                    drain_lag: lag,
                },
            ),
            _ => return None,
        })
    }

    /// RUBiS with affinity dispatch at `rate` requests/s per class.
    pub fn rubis(
        name: &'static str,
        seed: u64,
        rate: f64,
        config: PathmapConfig,
        transport: Transport,
        cadence: Cadence,
    ) -> Scenario {
        let started = Instant::now();
        let mut rubis = Rubis::build(RubisConfig {
            dispatch: Dispatch::Affinity,
            seed,
            bidding_rate: rate,
            comment_rate: rate,
            ..RubisConfig::default()
        });
        rubis.sim_mut().run_until(cadence.end);
        let gen_time = started.elapsed();
        // Both clients send for the whole run.
        let truth = Truth::from_sim(rubis.sim(), |_| (Nanos::ZERO, Nanos::from_nanos(u64::MAX)));
        Scenario {
            name,
            deployment: Deployment::Rubis(Box::new(rubis)),
            config,
            transport,
            cadence,
            truth,
            gen_time,
        }
    }

    /// The idle mesh: `shape.stacks` client → web → db stacks, each with
    /// Poisson arrivals drawn here from `seed`; after `shape.warm` only
    /// `shape.active` stacks, picked from `seed`, keep sending.
    pub fn mesh(seed: u64, shape: MeshShape, config: PathmapConfig, cadence: Cadence) -> Scenario {
        let started = Instant::now();
        let mut rng = SplitMix64(seed ^ 0x6d65_7368_5f69_646c);
        let active = rng.choose(shape.stacks, shape.active);
        let mut sends = Vec::with_capacity(shape.stacks);
        let mut t = TopologyBuilder::new();
        for (i, &is_active) in active.iter().enumerate() {
            let until = if is_active { cadence.end } else { shape.warm };
            let arrivals = rng.poisson(shape.rate, until);
            let class = t.service_class(&format!("class_{i}"));
            let web = t.service(
                &format!("web_{i}"),
                ServiceConfig::new(DelayDist::constant_millis(2)),
            );
            let db = t.service(
                &format!("db_{i}"),
                ServiceConfig::new(DelayDist::exponential_millis(8)),
            );
            t.connect(web, db, DelayDist::constant_millis(1));
            t.route(web, class, Route::fixed(db));
            t.route(db, class, Route::terminal());
            let cli = t.client(&format!("cli_{i}"), class, web, Workload::trace(arrivals));
            t.connect(cli, web, DelayDist::constant_millis(1));
            let last = if is_active {
                Nanos::from_nanos(u64::MAX)
            } else {
                until
            };
            sends.push((cli, (Nanos::ZERO, last)));
        }
        let mut sim = Simulation::new(t.build().expect("mesh topology is valid"), seed);
        sim.run_until(cadence.end);
        let gen_time = started.elapsed();
        let truth = Truth::from_sim(&sim, |client| {
            sends
                .iter()
                .find(|(cli, _)| *cli == client)
                .map(|&(_, span)| span)
                .expect("every client is a stack's client")
        });
        Scenario {
            name: "mesh_idle",
            deployment: Deployment::Mesh(Box::new(sim)),
            config,
            transport: Transport::InProcess,
            cadence,
            truth,
            gen_time,
        }
    }

    /// The finished simulation whose captures the tracers read.
    pub fn sim(&self) -> &Simulation {
        match &self.deployment {
            Deployment::Rubis(r) => r.sim(),
            Deployment::Mesh(sim) => sim,
        }
    }

    /// Messages captured over the run.
    pub fn messages(&self) -> u64 {
        self.sim().captures().total_packets() as u64
    }
}

/// Size of the idle mesh.
#[derive(Debug, Clone, Copy)]
pub struct MeshShape {
    /// Client → web → db stacks.
    pub stacks: usize,
    /// Stacks still sending after the warm-up.
    pub active: usize,
    /// Poisson arrival rate per stack, requests/s.
    pub rate: f64,
    /// Warm-up length, during which every stack sends.
    pub warm: Nanos,
}

/// SplitMix64: the benchmark's own input generator, so the inputs depend
/// on the seed alone.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A mask over `n` items with exactly `k` set, uniformly chosen.
    fn choose(&mut self, n: usize, k: usize) -> Vec<bool> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + (self.next_u64() % (n - i) as u64) as usize;
            order.swap(i, j);
        }
        let mut mask = vec![false; n];
        for &i in &order[..k.min(n)] {
            mask[i] = true;
        }
        mask
    }

    /// Poisson arrival instants at `rate`/s in `[0, until)`.
    fn poisson(&mut self, rate: f64, until: Nanos) -> Vec<Nanos> {
        let mut out = Vec::new();
        let mut at = 0.0f64;
        loop {
            at += -(1.0 - self.unit()).ln() / rate;
            let ns = (at * 1e9) as u64;
            if ns >= until.as_nanos() {
                return out;
            }
            out.push(Nanos::from_nanos(ns));
        }
    }
}
