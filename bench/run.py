#!/usr/bin/env python3
"""The one benchmark command: four workloads, six bounded metrics, a trace.

Two ways in (see README.md):

* ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` —
  one workload in this process; the last line of stdout is the result
  object BENCHMARK.json's contract describes. This is what the driver
  runs and what the mode below spawns.
* ``python3 bench/run.py [--repeats N] [--trace] [--tiny] [--agree]
  [--record]`` — every workload, each run in a fresh subprocess, one at
  a time; prints medians with min–max and writes ``bench/out/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import harness
from harness import BENCH_DIR, OUT_DIR, ROOT, SRC, Recorder, Tracer, median, spread

SCHEMA = "repro-bench/1"
HISTORY = BENCH_DIR / "history.jsonl"
#: ``--seed 42`` is the seed the files in ``expected/`` were pinned on.
PINNED_SEED = 42


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- one workload, in this process --------------------------------------------


def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    name = args.workload
    size = "tiny" if args.tiny else "full"
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(name)
    expected = None
    if args.seed == PINNED_SEED:
        pinned = json.loads(
            (BENCH_DIR / "expected" / f"{name}.json").read_text(encoding="utf-8")
        )
        expected = pinned[size]
    recorder = Recorder()
    tracer = Tracer(recorder.meter) if args.trace else None
    # By signal, the meter reaches inside the loops the program owns.
    ticking = (
        contextlib.nullcontext()
        if getattr(module, "TICKS_ITSELF", False)
        else recorder.meter
    )
    with ticking:
        module.run(size, args.seed, args.seconds, tracer, recorder, expected)

    if tracer is None:
        declared = spec["end_to_end"]
        measured: Dict[str, Optional[float]] = dict(
            recorder.end_to_end(harness.peak_rss_mb(recorder.rss_who))
        )
    else:
        tracer.write(OUT_DIR / f"trace-{name}.jsonl")
        declared = spec["per_layer"]
        measured = recorder.layers
    undeclared = sorted(set(measured) - {m["name"] for m in declared})
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")

    detail = {
        "workload": name,
        "seed": args.seed,
        "size": size,
        "traced": tracer is not None,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "failures": recorder.failures,
        "latency_samples": recorder.latency_samples,
        "passes": len(recorder.wall_s),
        "setups": len(recorder.setup_s),
        "simulated": recorder.simulated,
        "speed_meter": recorder.meter.summary(),
        # Only what this workload exercises; null = its soft probe is gone.
        "metrics": {
            m["name"]: measured[m["name"]]
            for m in declared
            if m["name"] in measured
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"run-{name}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"{name} (seed {args.seed}, {size}, trace {int(args.trace)})")
    for metric in declared:
        if metric["name"] in measured:
            value = measured[metric["name"]]
            shown = "unmeasured" if value is None else f"{value:.6g} {metric['unit']}"
            print(f"  {metric['name']:<44} {shown}")
    if tracer is None:
        print(
            f"  samples: {recorder.latency_samples} latencies/pass, "
            f"{len(recorder.wall_s)} pass(es), {len(recorder.setup_s)} set-up(s)"
        )
    speed = recorder.meter.summary()
    print(
        f"  speed meter: {speed['ticks']} ticks, the box ran "
        f"{speed['slowdown_median']:.2f}x slower than the reference"
    )
    for failure in recorder.failures:
        print(f"  FAILED: {failure}")
    # The driver wants numbers only. A per-layer metric of a layer this
    # workload never enters, or one whose soft probe is gone, reads 0
    # here; run-<workload>.json and the table above keep the null.
    result = {
        "correct": recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {
            m["name"]: {
                "value": measured.get(m["name"]) or 0.0,
                "unit": m["unit"],
            }
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


# -- every workload, each in a fresh subprocess -------------------------------


def envelope(args: argparse.Namespace) -> Dict[str, Any]:
    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True
            )
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "schema": SCHEMA,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "load_1m_at_start": os.getloadavg()[0],
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "size": "tiny" if args.tiny else "full",
    }


def spawn(args: argparse.Namespace, workload: str, seed: int, trace: int) -> Dict[str, Any]:
    """One run in a fresh interpreter; returns its run-<workload>.json."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} (seed {seed}) exited {done.returncode}")
    json.loads(done.stdout.strip().splitlines()[-1])  # the contract line parses
    return json.loads((OUT_DIR / f"run-{workload}.json").read_text(encoding="utf-8"))


def run_set(args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    """``--repeats`` runs of every workload on seeds S, S+1, …"""
    results: Dict[str, Any] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [
            spawn(args, workload, args.seed + repeat, 0)
            for repeat in range(args.repeats)
        ]
        summary: Dict[str, Any] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]],
            "latency_samples": runs[0]["latency_samples"],
            "end_to_end": {},
        }
        print(f"\n{workload}  ({args.repeats} run(s), seeds {args.seed}.."
              f"{args.seed + args.repeats - 1}, "
              f"{summary['latency_samples']} latency samples/run)")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            summary["end_to_end"][metric["name"]] = {
                "median": median(values), "min": min(values),
                "max": max(values), "spread": spread(values),
                "unit": metric["unit"], "n": len(values),
            }
            print(f"  {metric['name']:<22} {median(values):>12.6g} {metric['unit']:<4}"
                  f" [{min(values):.6g} – {max(values):.6g}]")
        summary["end_to_end"]["ops_failed_share"] = {
            "median": summary["failed"] / summary["attempted"],
            "unit": "share", "n": summary["attempted"],
        }
        print(f"  {'ops_failed_share':<22} "
              f"{summary['failed'] / summary['attempted']:>12.6g} share"
              f" [{summary['failed']} of {summary['attempted']} operations]")
        for failure in summary["failures"]:
            print(f"  FAILED: {failure}")
        if args.trace:
            traced = spawn(args, workload, args.seed, 1)
            summary["per_layer"] = traced["metrics"]
            summary["failed"] += traced["failed"]
            summary["failures"] += traced["failures"]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for name, value in traced["metrics"].items():
                shown = "unmeasured" if value is None else f"{value:.6g} {units[name]}"
                print(f"    {name:<44} {shown}")
        results[workload] = summary
    return results


def agree(first: Dict[str, Any], second: Dict[str, Any], spec: Dict[str, Any]) -> bool:
    """The driver's acceptance rule, applied to two sets of our own."""
    print(f"\n{'workload':<16} {'metric':<22} {'median A':>12} {'median B':>12}"
          f" {'spread A':>9} {'spread B':>9} {'differ':>8} {'bound':>6}")
    agreed = True
    for workload in first:
        for metric in spec["end_to_end"]:
            a = first[workload]["end_to_end"][metric["name"]]
            b = second[workload]["end_to_end"][metric["name"]]
            differ = abs(b["median"] - a["median"]) / a["median"]
            steady = metric["name"] == "setup_s" or (
                max(a["spread"], b["spread"]) <= metric["bound"]
            )
            ok = steady and differ <= metric["bound"]
            agreed = agreed and ok
            print(f"{workload:<16} {metric['name']:<22} {a['median']:>12.6g}"
                  f" {b['median']:>12.6g} {a['spread']:>9.4f} {b['spread']:>9.4f}"
                  f" {differ:>8.4f} {metric['bound']:>6.2f}"
                  f"{'' if ok else '  DISAGREES'}")
    return agreed


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    header = envelope(args)
    nproc = header["nproc"] or 1
    if header["load_1m_at_start"] > nproc / 2:
        print(
            f"refusing to measure: 1-min load {header['load_1m_at_start']:.2f} "
            f"exceeds nproc/2 = {nproc / 2:g}; wait for the machine to go quiet",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(header))
    document = dict(header, results=run_set(args, spec))
    failed = any(r["failed"] for r in document["results"].values())
    if args.agree:
        document["second_set"] = run_set(args, spec)
        failed = failed or any(r["failed"] for r in document["second_set"].values())
        document["agree"] = agree(document["results"], document["second_set"], spec)
        failed = failed or not document["agree"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "result.json").write_text(
        json.dumps(document, indent=1) + "\n", encoding="utf-8"
    )
    if args.record:
        with HISTORY.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(document) + "\n")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run this one workload in-process (the driver's form)")
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help="generates every input (default 42, the pinned seed)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measure whole passes until this many seconds have run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="make the traced pass and report the per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="every workload at toy size (tests; all four < 25 s)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per workload, on seeds S, S+1, … (default 3)")
    parser.add_argument("--agree", action="store_true",
                        help="run two sets and apply the driver's acceptance rule")
    parser.add_argument("--record", action="store_true",
                        help="append the result to bench/history.jsonl")
    args = parser.parse_args(argv)
    # Relative paths below (bench/out, unix sockets) assume the root.
    os.chdir(ROOT)
    if args.workload:
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
