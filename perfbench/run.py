"""windowcoupling benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a source checkout:
  python3 perfbench/run.py --workload widening --seed 1 --seconds 50 --trace 0

The run generates the workload's spec documents from the seed, then
replays user sessions (spec -> plan -> reload -> audit -> samples), each
in a fresh single-threaded interpreter, one after another, until the
measuring time is used up.  With ``--trace 0`` it prints the end-to-end
metrics, means over the sessions; with ``--trace 1`` it alternates
untraced and traced sessions and prints the per-layer metrics of the
traced ones.  Every check of every session feeds ``attempted``/``failed``.
The last stdout line is the result object; the full record, environment,
hashes and (traced) spans and counts go to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import mean, median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "plan_bytes": "bytes",
    "load_s": "s",
    "audit_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "measures.window_infimum.calls": "count",
    "measures.window_infimum.s": "s",
    "measures.density_convergence.s": "s",
    "engine.build_schedule.self_s": "s",
    "engine.build_ladder.s": "s",
    "engine.plan_exact_checks.s": "s",
    "engine.build_plan.self_s": "s",
    "engine.kernel_rows": "count",
    "engine.kernel_rows_reachable_ratio": "ratio",
    "engine.support_entries": "count",
    "engine.max_denominator_bits": "bits",
    "engine.sampler_init.s": "s",
    "engine.draw_us": "us",
    "engine.joint_support_size": "count",
    "engine.exact_joint_law.s": "s",
    "skorohod.model.s": "s",
    "skorohod.build_partition_tree.s": "s",
    "skorohod.digitize.s": "s",
    "skorohod.tree_exact_checks.s": "s",
    "skorohod.digit_space_points": "count",
    "skorohod.decode_us": "us",
    "jsonio.parse_spec.s": "s",
    "jsonio.plan_to_doc.s": "s",
    "jsonio.dumps.s": "s",
    "jsonio.loads.s": "s",
    "jsonio.plan_from_doc.s": "s",
    "jsonio.sample_record_us": "us",
    "jsonio.plan_bytes.sequence": "bytes",
    "jsonio.plan_bytes.ladder": "bytes",
    "jsonio.plan_bytes.laws": "bytes",
    "jsonio.plan_bytes.kernels": "bytes",
    "streams.stream_us": "us",
    "verify.audit.s": "s",
    "verify.mc_agreement.s": "s",
    "verify.checks_run": "count",
    "verify.checks_failed": "count",
    "failed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

RUN_LIMIT_S = 170  # a run, sessions included, must end within 180 s


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def run_session(
    root: Path, workload: str, seed: int, traced: bool, specs: list[str], timeout: float
) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(HERE / "session.py"), str(root), workload, str(seed),
         "1" if traced else "0", *specs],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"session exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def batch_rates(sessions: list[dict]) -> list[float]:
    return [count / seconds for s in sessions for count, seconds in s["batches"]]


def end_to_end(sessions: list[dict]) -> dict:
    """Stage times are means over the run's sessions, not medians: on a shared
    host the speed of a session shifts by up to a third within a run, and the
    median of a few sessions jumps with the speed most of them saw where the
    mean moves with the share of the run spent at each speed."""
    return {
        "setup_s": mean(s["setup_s"] for s in sessions),
        "build_s": mean(s["build_s"] for s in sessions),
        "plan_bytes": sessions[0]["plan_bytes"],
        "load_s": mean(s["load_s"] for s in sessions),
        "audit_s": mean(s["audit_s"] for s in sessions),
        # every sample of the run over the summed time of every batch
        "samples_per_s": sum(count for s in sessions for count, _ in s["batches"])
        / sum(t for s in sessions for _, t in s["batches"]),
        "peak_rss_mb": median(s["peak_rss_kib"] for s in sessions) / 1024,
    }


def per_layer(session: dict) -> dict:
    """Layer metrics of one traced session (failed_share and overhead are per run)."""
    spans = summarize(session["spans"])
    totals = session["counts"]["totals"]

    def seconds(name: str) -> float:
        return spans.get(name, {}).get("s", 0.0)

    def self_seconds(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def per_call_us(name: str) -> float:
        return spans.get(name, {}).get("median_us", 0.0)

    return {
        "measures.window_infimum.calls": spans.get("measures.window_infimum", {}).get("calls", 0),
        "measures.window_infimum.s": seconds("measures.window_infimum"),
        "measures.density_convergence.s": seconds("measures.density_convergence"),
        "engine.build_schedule.self_s": self_seconds("engine.build_schedule"),
        "engine.build_ladder.s": seconds("engine.build_ladder"),
        "engine.plan_exact_checks.s": seconds("engine.plan_exact_checks"),
        "engine.build_plan.self_s": self_seconds("engine.build_plan"),
        "engine.kernel_rows": totals["kernel_rows"],
        "engine.kernel_rows_reachable_ratio": totals["kernel_rows_reachable"]
        / max(totals["kernel_rows"], 1),
        "engine.support_entries": totals["support_entries"],
        "engine.max_denominator_bits": totals["max_denominator_bits"],
        "engine.sampler_init.s": seconds("engine.sampler_init"),
        "engine.draw_us": per_call_us("engine.draw"),
        "engine.joint_support_size": totals["joint_support_size"],
        "engine.exact_joint_law.s": seconds("engine.exact_joint_law"),
        "skorohod.model.s": seconds("skorohod.model"),
        "skorohod.build_partition_tree.s": seconds("skorohod.build_partition_tree"),
        "skorohod.digitize.s": seconds("skorohod.digitize"),
        "skorohod.tree_exact_checks.s": seconds("skorohod.tree_exact_checks"),
        "skorohod.digit_space_points": totals["digit_space_points"],
        "skorohod.decode_us": per_call_us("skorohod.decode"),
        "jsonio.parse_spec.s": seconds("jsonio.parse_spec"),
        "jsonio.plan_to_doc.s": seconds("jsonio.plan_to_doc"),
        "jsonio.dumps.s": seconds("jsonio.dumps"),
        "jsonio.loads.s": seconds("jsonio.loads"),
        "jsonio.plan_from_doc.s": seconds("jsonio.plan_from_doc"),
        "jsonio.sample_record_us": per_call_us("jsonio.sample_record"),
        **{f"jsonio.plan_bytes.{k}": v for k, v in totals["plan_bytes"].items()},
        "streams.stream_us": per_call_us("streams.stream"),
        "verify.audit.s": seconds("verify.audit"),
        "verify.mc_agreement.s": seconds("verify.mc_agreement"),
        "verify.checks_run": session["checks_run"],
        "verify.checks_failed": session["checks_failed"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "windowcoupling" / "__init__.py").is_file():
        print(f"error: no package source at {src}/windowcoupling", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import windowcoupling  # also fills the checkout's bytecode cache before timing

    if not Path(windowcoupling.__file__).resolve().is_relative_to(src):
        print(f"error: imported windowcoupling from {windowcoupling.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    docs = workload.specs(args.seed)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    runs: dict[bool, list[dict]] = {False: [], True: []}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        specs = []
        for i, (part, doc) in enumerate(docs):
            path = Path(tmp) / f"spec-{i:03d}.json"
            path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
            specs.append(f"{part}:{path}")
        deadline = time.monotonic() + args.seconds
        durations: dict[bool, list[float]] = {False: [], True: []}
        traced = False
        while True:
            begun = time.monotonic()
            timeout = started + RUN_LIMIT_S - begun
            runs[traced].append(
                run_session(root, args.workload, args.seed, traced, specs, timeout)
            )
            durations[traced].append(time.monotonic() - begun)
            traced = bool(args.trace) and not traced
            if args.trace and not runs[True]:
                continue
            # start another session only if at least half of it fits before
            # the deadline, so a run lasts --seconds give or take half a session
            expected = median(durations[traced] or durations[not traced])
            if time.monotonic() + expected / 2 > deadline:
                break

    sessions = runs[False] + runs[True]
    failures = [f for s in sessions for f in s["failures"]]
    digests = {(s["plan_sha256"], s["samples_sha256"]) for s in sessions}
    if len(digests) != 1:
        failures.append(f"sessions disagree on plan or sample bytes: {sorted(digests)}")
    attempted = sum(s["attempted"] for s in sessions) + 1
    failed = sum(s["failed"] for s in sessions) + (len(digests) != 1)

    if args.trace:
        layers = [per_layer(s) for s in runs[True]]
        values = {name: median(layer[name] for layer in layers) for name in layers[0]}
        values["failed_share"] = failed / attempted
        values["trace.overhead_ratio"] = median(s["build_s"] for s in runs[True]) / median(
            s["build_s"] for s in runs[False]
        )
        units = PER_LAYER
    else:
        values = end_to_end(runs[False])
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    rates = batch_rates(runs[False])
    batches = {
        "count": len(rates),
        "median_per_s": median(rates),
        # the slow tail: 5% of batches ran slower than this
        "p5_per_s": quantiles(rates, n=20)[0] if len(rates) > 1 else rates[0],
    }
    plan_sha256, samples_sha256 = sorted(digests)[0]
    record = {
        "workload": args.workload,
        "why": workload.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "version": sessions[0]["version"],
        "plan_sha256": plan_sha256,
        "samples_sha256": samples_sha256,
        "sample_batches": batches,
        "sessions": [
            {k: v for k, v in s.items() if k not in ("spans", "batches")}
            for s in sessions
        ],
        "failures": failures,
        "metrics": metrics,
    }
    if args.trace:
        record["span_fields"] = ["span_id", "parent_id", "name", "start_ns", "end_ns"]
        record["traces"] = [
            {"trace_id": s["trace_id"], "spans": s["spans"]} for s in runs[True]
        ]
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    summary = {
        "environment": record["environment"],
        "plan_sha256": plan_sha256,
        "samples_sha256": samples_sha256,
        "sessions": len(sessions),
        "sample_batches": batches,
        "record": str(out_path.relative_to(root)),
    }
    print(json.dumps(summary, sort_keys=True))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
