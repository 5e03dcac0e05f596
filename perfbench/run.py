#!/usr/bin/env python3
"""End-to-end pipeline benchmark for E2EProf.

Builds the `perfbench` package (release, from source) and runs it from
the root of a checkout:

    python3 perfbench/run.py --workload rubis_stream_tcp --seed 1 --seconds 20 --trace 0

With `--workload all` (the default) every workload runs untraced and then
traced, and a summary table follows. `--repeat N` runs the chosen
workload N times with one seed and checks that every deterministic count
repeats exactly, reporting each wall-clock metric's range and max-delta.

The last line of standard output is always one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Exit status: 0 when every
check passed, 1 when a check failed or the build failed, 2 on bad
arguments. Build output goes to standard error; the build directory is
`$CARGO_TARGET_DIR` (default `.bench_build` in the working directory).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["rubis_stream_tcp", "mesh_idle", "rubis_longlag"]
# Directories whose contents are build or run output, never source.
SKIP_DIRS = {".git", ".bench_build", "target", "out"}
SOURCE_SUFFIXES = {".rs", ".toml", ".lock", ".py"}


def build():
    """Builds the benchmark; returns its executable or exits 1."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        sys.exit(1)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    return target / "release" / "perfbench"


def source_id():
    """The commit under test: git's HEAD when the checkout is a git work
    tree, else a digest of every source file (the same tree gives the same
    digest, so fingerprints still match only like with like)."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            if head.returncode == 0:
                return "git:" + head.stdout.strip()
        except OSError:
            pass
    files = []
    for top, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in SKIP_DIRS]
        files += [Path(top, n) for n in names if Path(n).suffix in SOURCE_SUFFIXES]
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def run_once(exe, workload, seed, seconds, trace, commit, echo=True):
    """Runs one workload; returns (exit code, result object, summary)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--commit", commit]
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(out_dir / f"spans-{workload}-seed{seed}.csv")]
    done = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if echo:
        # The summary line is printed by the caller, last.
        for line in lines[:-1]:
            print(line)
    result = summary = None
    for line in lines:
        if line.startswith('{"workload"'):
            result = json.loads(line)
        elif line.startswith('{"correct"'):
            summary = json.loads(line)
    return done.returncode, result, summary


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_all(exe, args, commit):
    correct, attempted, failed, metrics, rows = True, 0, 0, {}, []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, summary = run_once(exe, workload, args.seed, args.seconds, trace, commit)
            if summary is None or result is None:
                fail(1, f"{workload} (trace {trace}) printed no result (exit {code})")
            correct &= summary["correct"] and code == 0
            attempted += summary["attempted"]
            failed += summary["failed"]
            for name, m in summary["metrics"].items():
                metrics[f"{workload}.{name}"] = m
            rows.append((workload, trace, result["metrics"]))
    print("\nsummary (untraced end-to-end; traced shares):")
    for workload, trace, m in rows:
        if trace == 0:
            keys = ["msgs_per_s", "time_to_graph_p50_ms", "flush_p50_ms", "setup_s", "error_rate"]
        else:
            keys = ["tracer.share", "link.share", "broker.share", "conn.share",
                    "analyzer.ingest_share", "analyzer.refresh_share",
                    "driver.unattributed_share", "trace.overhead"]
        cells = "  ".join(f"{k}={m[k]['value']:.4g}" for k in keys if k in m)
        print(f"  {workload:<17} {'traced' if trace else 'untraced':<8} {cells}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_repeat(exe, args, commit):
    """The cross-process repeatability evaluator."""
    results, summaries = [], []
    for i in range(args.repeat):
        code, result, summary = run_once(exe, args.workload, args.seed, args.seconds,
                                         args.trace, commit, echo=False)
        if summary is None or result is None:
            fail(1, f"run {i} printed no result (exit {code})")
        results.append(result)
        summaries.append(summary)
    correct = all(s["correct"] for s in summaries)
    counts = [r["counts"] for r in results]
    for i, c in enumerate(counts[1:], 1):
        if c != counts[0]:
            print(f"REPEATABILITY FAILED: run {i} counts {c} differ from run 0 {counts[0]}")
            correct = False
    print(f"{args.workload}, seed {args.seed}, {args.repeat} runs: deterministic counts "
          f"{'identical' if correct else 'DIFFER'}")
    metrics = {}
    for name in summaries[0]["metrics"]:
        values = [s["metrics"][name]["value"] for s in summaries]
        unit = summaries[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        delta = max(values) - min(values)
        rel = delta / med if med else 0.0
        print(f"  {name:<32} median {med:<14.6g} range [{min(values):.6g}, {max(values):.6g}] "
              f"max-delta {delta:.4g} ({rel:.1%}) {unit}")
        metrics[name] = {"value": med, "unit": unit}
    return {"correct": correct,
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=1)
    args = p.parse_args()
    if args.seconds < 1 or args.repeat < 1:
        fail(2, "--seconds and --repeat must be at least 1")
    if args.repeat > 1 and args.workload == "all":
        fail(2, "--repeat needs a single --workload")

    exe = build()
    commit = source_id()
    if args.workload == "all":
        summary = run_all(exe, args, commit)
    elif args.repeat > 1:
        summary = run_repeat(exe, args, commit)
    else:
        code, _, summary = run_once(exe, args.workload, args.seed, args.seconds,
                                    args.trace, commit)
        if summary is None:
            fail(1, f"{args.workload} printed no result (exit {code})")
        if code != 0:
            summary["correct"] = False
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
