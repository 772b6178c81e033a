"""Benchmark of the mocapsynth pipeline: WGAN-GP training, classifier training, synthesis.

    python3 perfbench/run.py --workload wgan-train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, one after another
    python3 perfbench/run.py --smoke         # every workload at a tiny size

Each workload runs in fresh processes started here: one per set-up
repeat, then one for the measured phase, which calls
`mocapsynth.cli.main` in process and checks its outputs afterwards.
BLAS is limited to one thread in every child. The last line of standard
output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics, or with --trace 1 the per-layer ones). See
perfbench/README.md for the metrics, the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench_out"
WORKLOADS = ("wgan-train", "classifier-train", "synth-pipeline")
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = (("seq_per_s", "seq/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def worker(args: list[str], deadline: float) -> float:
    """Run worker.py to completion; returns its wall time in seconds.

    A timer kills the child at the deadline, so the wait itself blocks
    instead of polling and the measured time has no polling steps.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], env=child_env(), stdout=sys.stderr)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:  # interrupted while waiting: leave no child behind
            proc.kill()
            proc.wait()
    seconds = time.perf_counter() - start
    if code != 0:
        raise BenchError(f"worker {args[:2]} exited with code {code}")
    return seconds


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool, deadline: float) -> dict:
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--seed", str(seed)] + (["--smoke"] if smoke else [])
    try:
        setup_times = []
        for rep in range(1 if smoke else SETUP_REPEATS):
            d = work / f"setup{rep}"
            setup_times.append(worker(["setup", name, "--dir", str(d), *common], deadline))
            if rep:
                shutil.rmtree(work / f"setup{rep - 1}")
        result_file = OUT / f"result-{name}-{seed}.json"
        measure = ["measure", name, "--dir", str(d), "--seconds", str(seconds), "--result", str(result_file), *common]
        if trace:
            measure += ["--trace", str(OUT / f"trace-{name}-{seed}.json")]
        worker(measure, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(result_file.read_text())
    result["setup_seconds"] = setup_times
    result_file.write_text(json.dumps(result, indent=1))
    rounds = result["rounds"]
    metrics = {
        "seq_per_s": sum(r["sequences"] for r in rounds) / sum(r["seconds"] for r in rounds),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup_times),
    }
    return {
        "correct": all(c["ok"] for c in result["checks"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks": result["checks"],
        "end_to_end": metrics,
        "per_layer": result.get("trace", {}).get("metrics", {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="round time to measure (default 20, or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1 if args.smoke else 20

    if not (ROOT / "src" / "mocapsynth" / "__init__.py").is_file():
        print(f"error: no mocapsynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from spans import per_layer_names

    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in per_layer_names()}
    section = "per_layer" if args.trace else "end_to_end"
    for name, res in results.items():
        for check in res["checks"]:
            status = "ok" if check["ok"] else f"FAILED: {check['detail']}"
            print(f"{name}  check {check['name']}: {status}")
        missing = sorted(set(units) - set(res[section]))
        if missing:
            print(f"error: {name} reported no value for {missing}", file=sys.stderr)
            return 1
        for metric, unit in units.items():
            print(f"{name}  {metric} = {res[section][metric]:.6g} {unit}")
        print(f"{name}  attempted {res['attempted']}, failed {res['failed']}")

    def entry(metric, value):
        return {"value": value, "unit": units[metric]}

    if len(results) == 1:
        (res,) = results.values()
        metrics = {m: entry(m, res[section][m]) for m in units}
    else:
        metrics = {f"{w}.{m}": entry(m, r[section][m]) for w, r in results.items() for m in units}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
