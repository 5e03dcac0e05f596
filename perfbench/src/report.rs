//! Turns the passes of one run into named metrics with units, the
//! repeatability summary, and the host fingerprint.

use crate::driver::{Counts, Pass};
use crate::json::Json;
use crate::pin::Pinning;
use crate::stats::{fastest_per_step, median, percentile, spread};
use crate::trace::Ledger;
use crate::workload::Scenario;
use std::time::Duration;

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Captured messages per second of step wall time, over `passes`.
pub fn msgs_per_s(passes: &[&Pass]) -> f64 {
    let messages: u64 = passes.iter().map(|p| p.counts.messages).sum();
    let secs: f64 = passes.iter().flat_map(|p| &p.step_ms).sum::<f64>() / 1e3;
    messages as f64 / secs
}

/// Passes with (`traced`) or without spans.
pub fn select(passes: &[Pass], traced: bool) -> Vec<&Pass> {
    passes.iter().filter(|p| p.traced == traced).collect()
}

/// Failed and checked refreshes over every pass.
pub fn refresh_errors(passes: &[Pass]) -> (u64, u64) {
    let failed = passes.iter().map(|p| p.failed).sum();
    let checked = passes.iter().map(|p| p.counts.refreshes).sum();
    (failed, checked)
}

/// The median over `passes` of a per-pass value; NaN when a pass has no
/// value (a tail percentile its samples cannot support), which renders
/// as `null`.
fn median_of(passes: &[&Pass], per_pass: impl Fn(&Pass) -> Option<f64>) -> f64 {
    let values: Option<Vec<f64>> = passes.iter().map(|p| per_pass(p)).collect();
    values.and_then(|v| median(&v)).unwrap_or(f64::NAN)
}

/// The end-to-end metrics. Every untraced pass replays the same steps,
/// so each step's time is taken as the fastest of its replays, and the
/// metrics are computed over those per-step times: a disturbance from the
/// host moves a step only if it hit every replay of that step.
pub fn end_to_end(passes: &[Pass], setups: &[Duration], peak_rss_mb: f64) -> Vec<Metric> {
    let untraced = select(passes, false);
    let c = untraced[0].counts;
    let setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let fastest =
        |series: fn(&Pass) -> &[f64]| fastest_per_step(untraced.iter().map(|p| series(p)));
    let steps_s: f64 = fastest(|p| &p.step_ms).iter().sum::<f64>() / 1e3;
    let ttg = fastest(|p| &p.time_to_graph_ms);
    let flush = fastest(|p| &p.flush_ms);
    let pct = |s: &[f64], q| percentile(s, q).unwrap_or(f64::NAN);
    vec![
        m("msgs_per_s", c.messages as f64 / steps_s, "1/s"),
        m("time_to_graph_p50_ms", pct(&ttg, 0.5), "ms"),
        m("time_to_graph_p90_ms", pct(&ttg, 0.9), "ms"),
        m("flush_p50_ms", pct(&flush, 0.5), "ms"),
        m("flush_p90_ms", pct(&flush, 0.9), "ms"),
        m(
            "wire_bytes_per_msg",
            c.payload_bytes as f64 / c.messages as f64,
            "bytes/msg",
        ),
        m("peak_rss_mb", peak_rss_mb, "MB"),
        m("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s"),
    ]
}

/// The per-layer ledger of the traced passes. Times are per pass (refresh
/// percentiles: the median over passes); counts are one pass's (every
/// pass has the same).
pub fn per_layer(passes: &[Pass], sc: &Scenario) -> Vec<Metric> {
    let traced = select(passes, true);
    let untraced = select(passes, false);
    let n = traced.len() as f64;
    let mut l = Ledger::default();
    for p in &traced {
        l.absorb(p.ledger.expect("traced passes carry a ledger"));
    }
    let c: Counts = traced[0].counts;
    let per_pass_ms = |ns: u64| ns as f64 / 1e6 / n;
    let per = |ns: u64, count: u64| {
        if count == 0 {
            0.0
        } else {
            ns as f64 / (count as f64 * n)
        }
    };
    let refresh = |q| median_of(&traced, |p| percentile(&p.refresh_ms, q));
    vec![
        m("tracer.self_ms", per_pass_ms(l.tracer_ns), "ms"),
        m("tracer.share", l.share(l.tracer_ns), "ratio"),
        m("tracer.ns_per_msg", per(l.tracer_ns, c.messages), "ns/msg"),
        m("tracer.frames", c.frames as f64, "count"),
        m("tracer.frames_dropped", c.frames_dropped as f64, "count"),
        m("link.send_ms", per_pass_ms(l.link_ns), "ms"),
        m("link.share", l.share(l.link_ns), "ratio"),
        m(
            "link.ns_per_frame",
            per(l.link_ns, c.link_delivered),
            "ns/frame",
        ),
        m("link.payload_bytes", c.payload_bytes as f64, "bytes"),
        m("link.frames_delivered", c.link_delivered as f64, "count"),
        m("link.redials", c.link_redials as f64, "count"),
        m("broker.wait_ms", per_pass_ms(l.broker_ns), "ms"),
        m("broker.share", l.share(l.broker_ns), "ratio"),
        m("broker.delivered", c.broker_delivered as f64, "count"),
        m("broker.ring_dropped", c.ring_dropped as f64, "count"),
        m(
            "broker.duplicates_rejected",
            c.duplicates_rejected as f64,
            "count",
        ),
        m("conn.wait_ms", per_pass_ms(l.conn_ns), "ms"),
        m("conn.share", l.share(l.conn_ns), "ratio"),
        m("conn.delivered", c.conn_delivered as f64, "count"),
        m("conn.duplicates", c.conn_duplicates as f64, "count"),
        m("conn.decode_errors", c.conn_decode_errors as f64, "count"),
        m("conn.reconnects", c.conn_reconnects as f64, "count"),
        m("analyzer.ingest_ms", per_pass_ms(l.ingest_ns), "ms"),
        m("analyzer.ingest_share", l.share(l.ingest_ns), "ratio"),
        m(
            "analyzer.ingest_ns_per_frame",
            per(l.ingest_ns, c.frames_ingested),
            "ns/frame",
        ),
        m(
            "analyzer.frames_ingested",
            c.frames_ingested as f64,
            "count",
        ),
        m("analyzer.refresh_ms", per_pass_ms(l.refresh_ns), "ms"),
        m("analyzer.refresh_share", l.share(l.refresh_ns), "ratio"),
        m("analyzer.refresh_p50_ms", refresh(0.5), "ms"),
        m("analyzer.refresh_p90_ms", refresh(0.9), "ms"),
        m("analyzer.graphs", c.graphs as f64, "count"),
        m("analyzer.scratch_reused", c.scratch_reused as f64, "count"),
        m(
            "analyzer.scratch_allocated",
            c.scratch_allocated as f64,
            "count",
        ),
        m("netsim.gen_ms", sc.gen_time.as_secs_f64() * 1e3, "ms"),
        m(
            "driver.unattributed_share",
            l.share(l.unattributed_ns),
            "ratio",
        ),
        m(
            "trace.overhead",
            msgs_per_s(&traced) / msgs_per_s(&untraced) - 1.0,
            "ratio",
        ),
    ]
}

/// The useful-work ratios of the analyzer's optional tiers, present only
/// while those tiers are enabled.
pub fn optional_fractions(passes: &[Pass]) -> Vec<Metric> {
    let f = passes[0].fractions;
    [
        ("analyzer.screen_pruned_fraction", f.screen_pruned),
        ("analyzer.fine_skipped_fraction", f.fine_skipped),
        ("analyzer.roots_reused_fraction", f.roots_reused),
    ]
    .into_iter()
    .filter_map(|(name, v)| v.map(|v| m(name, v, "ratio")))
    .collect()
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|x| {
        (
            x.name,
            Json::obj([("value", Json::Num(x.value)), ("unit", Json::str(x.unit))]),
        )
    }))
}

/// The deterministic counts as JSON.
pub fn counts_json(c: &Counts) -> Json {
    let pairs = [
        ("messages", c.messages),
        ("frames", c.frames),
        ("frames_dropped", c.frames_dropped),
        ("payload_bytes", c.payload_bytes),
        ("link_delivered", c.link_delivered),
        ("frames_ingested", c.frames_ingested),
        ("broker_delivered", c.broker_delivered),
        ("conn_delivered", c.conn_delivered),
        ("refreshes", c.refreshes),
        ("graphs", c.graphs),
    ];
    let mut obj: Vec<(String, Json)> = pairs
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::Int(v)))
        .collect();
    obj.push((
        "graph_digest".into(),
        Json::str(format!("{:016x}", c.digest)),
    ));
    Json::Obj(obj)
}

/// The repeatability evaluator over one run's passes: the deterministic
/// counts must be identical in every pass (`Err` names the first pass
/// that differs), and each wall-clock metric is reported with its range
/// and largest difference across the untraced passes.
pub fn repeatability(passes: &[Pass]) -> Result<Json, String> {
    let first = &passes[0].counts;
    if let Some((i, p)) = passes.iter().enumerate().find(|(_, p)| p.counts != *first) {
        return Err(format!(
            "pass {i} counts differ from pass 0:\n  pass 0: {first:?}\n  pass {i}: {:?}",
            p.counts
        ));
    }
    let untraced = select(passes, false);
    let per_pass: [(&str, Vec<f64>); 4] = [
        (
            "msgs_per_s",
            untraced.iter().map(|p| msgs_per_s(&[p])).collect(),
        ),
        (
            "time_to_graph_p50_ms",
            untraced
                .iter()
                .filter_map(|p| median(&p.time_to_graph_ms))
                .collect(),
        ),
        (
            "flush_p50_ms",
            untraced
                .iter()
                .filter_map(|p| median(&p.flush_ms))
                .collect(),
        ),
        (
            "setup_s",
            passes.iter().map(|p| p.setup.as_secs_f64()).collect(),
        ),
    ];
    let mut obj = vec![
        ("passes".to_string(), Json::Int(passes.len() as u64)),
        ("counts_identical".to_string(), Json::Bool(true)),
    ];
    for (name, values) in per_pass {
        if let Some(s) = spread(&values) {
            obj.push((
                name.to_string(),
                Json::obj([
                    ("min", Json::Num(s.min)),
                    ("max", Json::Num(s.max)),
                    ("max_delta", Json::Num(s.max_delta)),
                    ("rel_delta", Json::Num(s.rel_delta)),
                ]),
            ));
        }
    }
    Ok(Json::Obj(obj))
}

/// Identifies the host and the run so only like results are compared.
pub struct Fingerprint {
    /// CPUs the process could use, and the one it was pinned to.
    pub pinning: Pinning,
    /// Source revision of the program under test.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time.
    pub run_seconds: u64,
}

impl Fingerprint {
    /// As JSON, with the host facts filled in.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Int(self.pinning.allowed as u64)),
            (
                "pinned_cpu",
                self.pinning
                    .cpu
                    .map_or(Json::Num(f64::NAN), |cpu| Json::Int(cpu as u64)),
            ),
            ("cpu_model", Json::str(cpu_model())),
            ("simd_kernel", Json::str(e2eprof_xcorr::simd::kernel_name())),
            (
                "available_workers",
                Json::Int(e2eprof_core::parallel::available_workers() as u64),
            ),
            ("commit", Json::str(self.commit.clone())),
            ("seed", Json::Int(self.seed)),
            ("run_seconds", Json::Int(self.run_seconds)),
        ])
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cumulative host CPU time as `(steal, total)` jiffies from the first
/// line of `/proc/stat`; `None` where the kernel does not report it.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The share of host CPU time stolen by the hypervisor between two
/// [`cpu_steal`] readings: context for a run whose timings look disturbed.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or NaN
/// where the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
