"""Child process of run.py: builds a workload's inputs, or runs its measured phase.

    worker.py setup   WORKLOAD --seed N --dir D [--smoke]
    worker.py measure WORKLOAD --seed N --dir D --seconds S --result FILE [--trace FILE] [--smoke]

run.py starts one fresh process per set-up repeat and one for the
measured phase, so the peak RSS the measured phase reports excludes the
memory that building the inputs took.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans as tracing
from workloads import WORKLOADS, Check

ROOT = Path(__file__).resolve().parents[1]


def import_program():
    """Import mocapsynth from this checkout's src/, never from elsewhere."""
    import mocapsynth
    import mocapsynth.cli

    where = Path(mocapsynth.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(f"mocapsynth was imported from {where}, not from {ROOT / 'src'}")
    return mocapsynth.cli


def tree_digest(directory: Path) -> dict[str, str]:
    """sha256 of every file under `directory`, read in 1 MiB chunks."""
    digests = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
        digests[str(path.relative_to(directory))] = h.hexdigest()
    return digests


class Runner:
    """Runs rounds and checks of one workload, counting operations."""

    def __init__(self, workload, d: Path, seed: int, size, cli):
        self.workload, self.d, self.seed, self.size, self.cli = workload, d, seed, size, cli
        self.attempted = 0
        self.failed = 0
        self.tracer: tracing.Tracer | None = None

    def run_cli(self, argv: list[str]) -> int:
        self.attempted += 1
        if self.tracer is None:
            rc = self.cli.main(argv)
        else:
            rec = self.tracer.begin(f"cli.{argv[0]}")
            try:
                rc = self.cli.main(argv)
            finally:
                self.tracer.end(rec)
        if rc != 0:
            self.failed += 1
        return rc

    def round(self) -> dict:
        """One timed round; returns its wall time, sequences and output digest."""
        out = self.d / "out"
        shutil.rmtree(out, ignore_errors=True)
        calls = self.workload.round(self.d, self.seed, self.size)
        start = time.perf_counter()
        codes = [self.run_cli(argv) for argv in calls]
        seconds = time.perf_counter() - start
        if any(codes):
            raise SystemExit(f"{self.workload.name}: CLI exit codes {codes}")
        return {
            "seconds": seconds,
            "sequences": self.workload.sequences(self.d, self.size),
            "digest": tree_digest(out),
        }

    def rounds(self, seconds: float) -> list[dict]:
        """Whole rounds until `seconds` of round time have passed, and at least two."""
        done = [self.round(), self.round()]
        while sum(r["seconds"] for r in done) < seconds:
            done.append(self.round())
        return done

    def checks(self, rounds: list[dict], log: list[str]) -> list[dict]:
        results = []

        def same_outputs():
            first = rounds[0]["digest"]
            changed = [i for i, r in enumerate(rounds) if r["digest"] != first]
            return None if not changed else f"rounds {changed} wrote different bytes from round 0"

        checks = self.workload.checks(self.d, self.seed, self.size, self.run_cli, log)
        checks.append(Check("reruns_identical", same_outputs))
        for check in checks:
            self.attempted += 1
            start = time.perf_counter()
            try:
                problem = check.run()
            except Exception:
                problem = traceback.format_exc()
            if problem:
                self.failed += 1
            results.append({"name": check.name, "ok": problem is None, "detail": problem,
                            "seconds": time.perf_counter() - start})
        return results


class LogLines(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 prints its config and takes no mode
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(args, workload, size, cli) -> dict:
    d = Path(args.dir)
    log = LogLines()
    logging.getLogger("mocapsynth").addHandler(log)
    runner = Runner(workload, d, args.seed, size, cli)
    rounds = runner.rounds(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "machine": machine(),
        "rounds": [{k: r[k] for k in ("seconds", "sequences")} for r in rounds],
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        result["trace"], traced_rounds = traced(args, runner, rounds)
        rounds = rounds + traced_rounds
    result["checks"] = runner.checks(rounds, log.lines)
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    return result


def traced(args, runner: Runner, untraced: list[dict]) -> tuple[dict, list[dict]]:
    """As many traced rounds as untraced ones, then one traced smoke round of every other workload.

    A layer the workload never calls is reported from that smoke pass,
    so every traced run names every per-layer metric.
    """
    tracer = tracing.Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        rounds = [runner.round() for _ in untraced]
    finally:
        tracer.uninstall()
        runner.tracer = None
    untraced_s = statistics.median(r["seconds"] for r in untraced)
    traced_s = statistics.median(r["seconds"] for r in rounds)
    metrics = tracing.layer_metrics(tracer.spans, len(rounds))
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s

    cross = tracing.Tracer()
    for other in WORKLOADS.values():
        if other is runner.workload:
            continue
        d = Path(args.dir) / "cross" / other.name
        d.mkdir(parents=True)
        other.setup(d, args.seed, other.smoke)
        side = Runner(other, d, args.seed, other.smoke, runner.cli)
        side.tracer = cross
        cross.install()
        try:
            side.round()
        finally:
            cross.uninstall()
        runner.attempted += side.attempted
        runner.failed += side.failed
    cross_rounds = len(WORKLOADS) - 1
    from_smoke = {k: v for k, v in tracing.layer_metrics(cross.spans, cross_rounds).items() if k not in metrics}
    metrics.update(from_smoke)
    Path(args.trace).write_text(json.dumps({
        "workload": runner.workload.name,
        "seed": args.seed,
        "span_fields": ["name", "start", "end", "parent", "attrs"],
        "spans": tracer.spans,
        "smoke_spans": cross.spans,
        "from_smoke": sorted(from_smoke),
        "round_seconds": {"untraced": [r["seconds"] for r in untraced], "traced": [r["seconds"] for r in rounds]},
    }))
    return {"metrics": metrics, "from_smoke": sorted(from_smoke)}, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=["setup", "measure"])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    cli = import_program()
    workload = WORKLOADS[args.workload]
    size = workload.smoke if args.smoke else workload.full
    if args.role == "setup":
        Path(args.dir).mkdir(parents=True, exist_ok=True)
        workload.setup(Path(args.dir), args.seed, size)
        return 0
    result = measure(args, workload, size, cli)
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
