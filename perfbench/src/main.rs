//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload from the seed, then replays it through fresh
//! pipeline tiers, pass after pass, for about `--seconds` of measuring.
//! With `--trace 0` every pass is untraced and the end-to-end metrics are
//! reported; with `--trace 1` traced and untraced passes alternate and the
//! per-layer ledger is reported. Prints a result object (objective,
//! metrics, fingerprint, repeatability) and, as the last line, the
//! summary `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a
//! correctness or repeatability check fails, 2 on bad arguments.

use perfbench::driver::{run_pass, setup_only, Pass};
use perfbench::json::Json;
use perfbench::pin::pin_to_one_cpu;
use perfbench::report::{self, Fingerprint, Metric};
use perfbench::trace::write_csv;
use perfbench::workload::{Scenario, WORKLOADS};
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up-only samples taken after each pass. With one sample per pass
/// they make the `setup_s` median; spread over the whole run, they span
/// the host's fast and slow stretches alike instead of one moment of it.
const SETUP_SAMPLES_PER_PASS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        commit: "unknown".into(),
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--commit" => args.commit = value()?,
            "--spans-out" => args.spans_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn describe(i: usize, p: &Pass) -> String {
    let med = |s: &[f64]| perfbench::stats::median(s).unwrap_or(f64::NAN);
    format!(
        "pass {i} {}: setup {:.2} ms, steps {:.3} s, {:.0} msgs/s, time-to-graph p50 {:.3} ms, \
         flush p50 {:.4} ms, {}/{} refreshes failed",
        if p.traced { "traced" } else { "untraced" },
        p.setup.as_secs_f64() * 1e3,
        p.step_ms.iter().sum::<f64>() / 1e3,
        report::msgs_per_s(&[p]),
        med(&p.time_to_graph_ms),
        med(&p.flush_ms),
        p.failed,
        p.counts.refreshes,
    )
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for x in metrics {
        println!("  {:<32} {:>16.6} {}", x.name, x.value, x.unit);
    }
}

fn main() -> ExitCode {
    let pinning = pin_to_one_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sc = Scenario::build(&args.workload, args.seed).expect("workload name checked above");
    println!(
        "{}: seed {}, {} messages captured, generated in {:.0} ms (not timed)",
        sc.name,
        args.seed,
        sc.messages(),
        sc.gen_time.as_secs_f64() * 1e3
    );

    let budget = Duration::from_secs(args.seconds);
    let min_passes = if args.trace { 2 } else { 1 };
    let started = Instant::now();
    let steal_before = report::cpu_steal();
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups: Vec<Duration> = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let pass = run_pass(&sc, traced);
        println!("{}", describe(passes.len(), &pass));
        if passes.is_empty() {
            // One untraced pass's footprint: later passes would add the
            // span logs, and over TCP whatever each torn-down broker keeps.
            peak_rss_mb = report::peak_rss_mb();
        }
        if pass.traced {
            // Only the last traced pass's spans are written out.
            for p in &mut passes {
                p.spans = Vec::new();
            }
        }
        setups.push(pass.setup);
        passes.push(pass);
        setups.extend((0..SETUP_SAMPLES_PER_PASS).map(|_| setup_only(&sc)));
        let elapsed = started.elapsed();
        let mean = elapsed / passes.len() as u32;
        if passes.len() >= min_passes && elapsed + mean / 2 > budget {
            break;
        }
    }
    let steal = report::steal_share(steal_before, report::cpu_steal());
    println!(
        "host CPU time stolen while measuring: {:.1}%",
        steal * 100.0
    );
    let failures: Vec<&String> = passes.iter().flat_map(|p| &p.failures).collect();
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let mut correct = passes.iter().all(|p| p.failed == 0);
    let repeat = match report::repeatability(&passes) {
        Ok(json) => json,
        Err(e) => {
            println!("REPEATABILITY FAILED: {e}");
            correct = false;
            Json::obj([("counts_identical", Json::Bool(false))])
        }
    };
    let (failed, checked) = report::refresh_errors(&passes);
    let error_rate = failed as f64 / checked.max(1) as f64;

    let e2e = report::end_to_end(&passes, &setups, peak_rss_mb);
    print_metrics("end-to-end (untraced passes)", &e2e);
    println!("  {:<32} {:>16.6} ratio", "error_rate", error_rate);
    let layers = if args.trace {
        report::per_layer(&passes, &sc)
    } else {
        Vec::new()
    };
    let optional = report::optional_fractions(&passes);
    if args.trace {
        print_metrics("per layer (traced passes)", &layers);
        if !optional.is_empty() {
            print_metrics("optional tiers", &optional);
        }
    }
    if let (Some(path), Some(traced)) = (&args.spans_out, passes.iter().rev().find(|p| p.traced)) {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            write_csv(&traced.spans, &mut out)?;
            out.flush()
        });
        match written {
            Ok(()) => println!("spans of the last traced pass: {path}"),
            Err(e) => {
                eprintln!("perfbench: writing {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let objective = e2e[0];
    let mut all = e2e.clone();
    all.push(Metric {
        name: "error_rate",
        value: error_rate,
        unit: "ratio",
    });
    all.extend(layers.iter().copied());
    all.extend(optional.iter().copied());
    let fingerprint = Fingerprint {
        pinning,
        commit: args.commit.clone(),
        seed: args.seed,
        run_seconds: args.seconds,
    };
    let result = Json::obj([
        ("workload", Json::str(sc.name)),
        (
            "outcome",
            Json::str(if correct { "success" } else { "failure" }),
        ),
        (
            "mode",
            Json::str(if args.trace { "traced" } else { "untraced" }),
        ),
        (
            "objective",
            Json::obj([
                ("name", Json::str(objective.name)),
                ("value", Json::Num(objective.value)),
                ("unit", Json::str(objective.unit)),
            ]),
        ),
        ("metrics", report::metrics_json(&all)),
        ("fingerprint", fingerprint.to_json()),
        ("host_steal_share", Json::Num(steal)),
        ("counts", report::counts_json(&passes[0].counts)),
        ("repeatability", repeat),
        (
            "failures",
            Json::Arr(failures.iter().map(|f| Json::str(f.as_str())).collect()),
        ),
    ]);
    println!("{result}");

    let reported = if args.trace { &layers } else { &e2e };
    let summary = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(checked)),
        ("failed", Json::Int(failed)),
        ("metrics", report::metrics_json(reported)),
    ]);
    println!("{summary}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
