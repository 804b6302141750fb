"""The repository benchmark: ``profile``, ``triage`` and ``fleet``.

Run one workload from the repository root::

    python3 perfbench/run.py --workload profile --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it records the environment.  A failed
correctness gate still prints the result but exits 1; a run that could
not measure (missing sources, a late load generator) prints no result and
exits 2 or 3.

``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks metric names, units and the correctness gate::

    python3 perfbench/run.py --smoke
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from common import OUT_DIR, ROOT, environment, load_spec

WORKLOADS = ("profile", "triage", "fleet")


def _import_program() -> bool:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return False
    return True


def _kernel() -> str:
    from repro.detector.flat import FlatDetector

    return FlatDetector("hb").kernel


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> int:
    from fleet import InvalidRun, run_fleet
    from offline import run_profile, run_triage
    from spans import Tracer, install_layer_wrappers

    end_to_end, per_layer = load_spec()
    runner = {"profile": run_profile, "triage": run_triage,
              "fleet": run_fleet}[name]
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_layer_wrappers(tracer)
    try:
        outcome = runner(seed, seconds, tracer, tiny)
    except InvalidRun as exc:
        print(f"perfbench: invalid run, not reported: {exc}", file=sys.stderr)
        return 3
    finally:
        if tracer is not None:
            tracer.restore()

    failed_ratio = outcome.failed / max(outcome.attempted, 1)
    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"))
        outcome.metrics["failed_ratio"] = failed_ratio
        outcome.metrics["env.nproc"] = float(os.cpu_count())
        outcome.metrics["env.numpy"] = float(_kernel() == "numpy")
        outcome.metrics["env.host_speed"] = outcome.host_speed
    units = per_layer if trace else end_to_end
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"{name} produced no value for {missing}")
    for problem in dict.fromkeys(outcome.problems):
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(f"perfbench: {name} seed {seed}: {outcome.attempted} attempted, "
          f"{outcome.failed} failed (failed_ratio {failed_ratio:.4f})",
          file=sys.stderr)
    print(json.dumps({"env": environment(_kernel(), outcome),
                      "workload": name,
                      "seed": seed, "trace": int(trace)}))
    print(outcome.result_line(units))
    return 0 if outcome.correct else 1


def smoke(seed: int) -> int:
    """Every workload at a tiny size, both modes; names, units and gate."""
    end_to_end, per_layer = load_spec()
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(command, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            problem = None
            if proc.returncode != 0 or not lines:
                problem = f"exit {proc.returncode}: {proc.stderr.strip()}"
            else:
                result = json.loads(lines[-1])
                want = per_layer if trace else end_to_end
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problem = f"metrics {sorted(got)} differ from the spec"
                elif not result["correct"]:
                    problem = "correctness gate failed"
            status = "ok" if problem is None else f"FAIL {problem}"
            print(f"smoke {name} trace={trace}: {status}")
            failures += problem is not None
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (used by --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check "
                             "the result format and the correctness gate")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")) or \
            not _import_program():
        print("perfbench: run from a checkout holding BENCHMARK.json and "
              "src/", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
