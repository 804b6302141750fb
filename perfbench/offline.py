"""The ``profile`` and ``triage`` workloads: one process, no daemon.

``profile`` is the tool's own use, ``LiteRace(sampler="TL-Ad").run`` on a
fixed program set.  ``triage`` is "profile now, triage later" (§4.4): set-up
records the TL-Ad and Full logs of the same programs with ``save_log``
defaults, and the timed phase runs ``repro analyze`` over the files.

Both time whole *passes* over their input set.  A request is one program
profiled or one log analyzed, run back to back, so its latency from the
moment it was due is its duration.  A query reads results once, as a
developer triaging them would: the triage report of a profiled run (what
``repro run`` prints after profiling), or, once a pass is done, the race
lists of all analyzed logs symbolized to source locations.  Traced runs
alternate an untraced and a traced pass so the two can be compared on
equal footing.
"""

from __future__ import annotations

import contextlib
import gc
import inspect
import io
import os
import re
import shutil
import time
from typing import Callable, Dict, List, Optional, Tuple

from common import (OUT_DIR, Outcome, host_speed, load_spec, median,
                    percentile, planted_keys, reset_peak_rss,
                    self_peak_rss_mb, tail_percentile)
from spans import self_time

#: (workload, scale): memory-heavy, sync-heavy, tight sync loop.
PROGRAMS = (("apache-1", 0.05), ("concrt-scheduling", 0.05),
            ("lkrhash", 0.05))
TINY_PROGRAMS = (("apache-1", 0.01), ("lkrhash", 0.01))
SAMPLERS = ("TL-Ad", "Full")
#: Set-ups per run (the median is reported).  Triage records six runs per
#: set-up, so it repeats fewer times.
SETUP_REPEATS = {"profile": 5, "triage": 3}
MIN_PASSES = 3

_RACE_ROW = re.compile(r"^\s+pcs \((\d+), (\d+)\)")


class Pass:
    """One pass over the input set: its wall time, request samples and the
    host speed measured just before it."""

    __slots__ = ("elapsed", "events", "requests", "queries", "speed")

    def __init__(self, elapsed: float, events: int, requests: List[float],
                 queries: List[float], speed: float):
        self.elapsed = elapsed
        self.events = events
        self.requests = requests
        self.queries = queries
        self.speed = speed


def _build(seed: int, programs):
    from repro import workloads

    return [(name, workloads.build(name, seed=seed, scale=scale))
            for name, scale in programs]


def _repeat_setup(step, repeats: int) -> Tuple[float, float, object]:
    """Run ``step`` several times.  Returns the median duration at
    reference host speed (each scaled like a pass, by the mean of a reading
    just before and one just after it), the raw median and the last
    product."""
    scaled, raw, product = [], [], None
    for _ in range(repeats):
        product = None  # set-ups do not overlap in memory
        before = host_speed()
        started = time.perf_counter()
        product = step()
        raw.append(time.perf_counter() - started)
        scaled.append(raw[-1] / ((before + host_speed()) / 2))
    return median(scaled), median(raw), product


def _start_timed_phase(outcome: Outcome) -> None:
    """Drop set-up garbage and restart the peak resident set, so
    ``peak_rss_mb`` covers the timed phase only."""
    gc.collect()
    outcome.env["peak_rss_reset"] = reset_peak_rss()


def _timed_ms(work: Callable[[], object]) -> float:
    started = time.perf_counter()
    work()
    return (time.perf_counter() - started) * 1e3


def _render_reports(pairs) -> List[float]:
    """``profile``'s queries: the triage report of each run of a pass, one
    query per run."""
    from repro.core.triage import render_triage

    return [_timed_ms(lambda: render_triage(program, result))
            for program, result in pairs]


def _symbolize_races(found) -> List[str]:
    """``triage``'s query: every analyzed log's races, symbolized to
    ``function+offset`` as a triage report shows them."""
    return [f"{program.symbolize(pc1)} <-> {program.symbolize(pc2)}"
            for program, races in found for pc1, pc2 in sorted(races)]


def _measure(one_pass: Callable[[], Pass], seconds: float,
             traced_pass: Optional[Callable[[], Tuple[float, Dict]]]):
    """Passes until ``seconds`` have gone by; with ``traced_pass``, a
    traced pass follows every untraced one."""
    passes: List[Pass] = []
    traced: List[Tuple[float, Dict]] = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(one_pass())
        if traced_pass is not None:
            traced.append(traced_pass())
        if time.perf_counter() >= deadline and len(passes) >= MIN_PASSES:
            return passes, traced


def _pass_metrics(passes: List[Pass], scaled: bool) -> Dict[str, float]:
    def slow(p: Pass) -> float:
        return p.speed if scaled else 1.0

    requests = [ms / slow(p) for p in passes for ms in p.requests]
    queries = [ms / slow(p) for p in passes for ms in p.queries]
    return {
        "pass_s": median([p.elapsed / slow(p) for p in passes]),
        "events_per_s": median([p.events * slow(p) / p.elapsed
                                for p in passes]),
        "submit_p50_ms": median(requests),
        "submit_p90_ms": percentile(
            requests, tail_percentile(len(requests), 90)),
        "query_p50_ms": median(queries),
        "query_p90_ms": percentile(
            queries, tail_percentile(len(queries), 90)),
        "capacity_sub_per_s": len(requests) / (sum(requests) / 1e3),
    }


def _end_to_end(outcome: Outcome, setup_s: float, raw_setup_s: float,
                passes: List[Pass]) -> None:
    """Every pass sample scaled to reference host speed by its pass's
    reading (the mean of one taken just before the pass and one just
    after).  The unscaled values go to the env line."""
    outcome.host_speed = median([p.speed for p in passes])
    metrics = outcome.metrics
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = self_peak_rss_mb()
    metrics.update(_pass_metrics(passes, scaled=True))
    outcome.env["raw"] = {"setup_s": raw_setup_s,
                          **_pass_metrics(passes, scaled=False)}


def _layer_metrics(outcome: Outcome, passes: List[Pass], traced,
                   zero_prefixes) -> Dict[str, float]:
    """Medians of the traced passes' layer rows, plus the overhead."""
    metrics = outcome.metrics
    rows = [row for _, row in traced]
    for key in rows[0]:
        metrics[key] = median([row[key] for row in rows])
    outcome.host_speed = median([p.speed for p in passes])
    untraced = median([p.elapsed for p in passes])
    metrics["trace.untraced_pass_s"] = untraced
    metrics["trace.overhead_s"] = median([t for t, _ in traced]) - untraced
    # Layers a workload never calls report zero work, not a gap.
    for name in load_spec()[1]:
        if name.split(".")[0] in zero_prefixes:
            metrics.setdefault(name, 0.0)
    return metrics


# -- profile -----------------------------------------------------------------

def run_profile(seed: int, seconds: float, tracer, tiny: bool) -> Outcome:
    from repro.core import literace
    from repro.eventlog.encode import encode_log

    outcome = Outcome()
    programs = TINY_PROGRAMS if tiny else PROGRAMS

    def setup():
        built = _build(seed, programs)
        # Warm-up: the first run of each program fills lazy caches.
        for _, program in built:
            literace.LiteRace(sampler="TL-Ad", seed=seed).run(program)
        return built

    setup_s, raw_setup_s, built = _repeat_setup(setup,
                                                SETUP_REPEATS["profile"])
    expected = {name: planted_keys(program) for name, program in built}
    _start_timed_phase(outcome)

    def profile_all():
        started = time.perf_counter()
        requests, results = [], []
        for name, program in built:
            begun = time.perf_counter()
            result = literace.LiteRace(sampler="TL-Ad", seed=seed).run(program)
            requests.append((time.perf_counter() - begun) * 1e3)
            results.append((name, program, result))
        elapsed = time.perf_counter() - started
        for name, _, result in results:
            outcome.attempted += 1
            found = result.report.static_races
            outcome.check(found <= expected[name],
                          f"profile {name}: TL-Ad reported non-planted races "
                          f"{sorted(found - expected[name])}")
        return elapsed, requests, results

    def one_pass() -> Pass:
        before = host_speed()
        elapsed, requests, results = profile_all()
        events = sum(len(r.log.events) for *_, r in results)
        queries = _render_reports([(p, r) for _, p, r in results])
        del results
        speed = (before + host_speed()) / 2
        return Pass(elapsed, events, requests, queries, speed)

    def traced_pass():
        mark = tracer.mark()
        tracer.set_active(True)
        try:
            elapsed, _, results = profile_all()
            pass_end = tracer.mark()
            baselines = [literace.run_baseline(program, seed=seed)
                         for _, program, _ in results]
        finally:
            tracer.set_active(False)
        return elapsed, _profile_layers(tracer, mark, pass_end, results,
                                        baselines)

    passes, traced = _measure(one_pass, seconds,
                              traced_pass if tracer is not None else None)
    if tracer is None:
        _end_to_end(outcome, setup_s, raw_setup_s, passes)
        return outcome
    metrics = _layer_metrics(outcome, passes, traced,
                             ("eventlog", "detector", "service", "scenarios",
                              "loadgen"))
    metrics["detector.events_per_s"] = (
        metrics["core.logged_events"] / metrics["detector.detect_s"])
    # The format a profiled log would be written in: encode_log's default.
    metrics["eventlog.format_version"] = float(
        inspect.signature(encode_log).parameters["version"].default)
    return outcome


def _profile_layers(tracer, mark, pass_end, results, baselines):
    by_name, by_layer = tracer.summary(mark, pass_end)
    base_names, _ = tracer.summary(pass_end)
    baseline_s = base_names["run_baseline"]["total"]
    profile_s = by_name["LiteRace.profile"]["total"]
    return {
        "runtime.baseline_s": baseline_s,
        "runtime.mem_ops": float(sum(b.memory_ops for b in baselines)),
        "runtime.sync_ops": float(sum(b.sync_ops for b in baselines)),
        "core.profile_s": profile_s,
        "core.harness_s": profile_s - baseline_s,
        "core.esr": median([r.effective_sampling_rate
                            for _, _, r in results]),
        "core.logged_events": float(sum(len(r.log.events)
                                        for _, _, r in results)),
        "eventlog.encode_s": self_time(by_name, "encoded_size"),
        "eventlog.log_bytes": float(sum(r.log_bytes for _, _, r in results)),
        "detector.merge_s": self_time(by_name, "merge_thread_logs"),
        "detector.detect_s": self_time(by_name, "feed_all", "feed_batch"),
        "detector.kernel": 0.0,
        # Self times of nested spans always add up to their roots, so this
        # checks that the wrappers cover the pass, not how it is split.
        "trace.layer_sum_s": sum(by_layer.values()),
    }


# -- triage ------------------------------------------------------------------

def _parse_races(text: str) -> set:
    return {(int(m.group(1)), int(m.group(2)))
            for m in map(_RACE_ROW.match, text.splitlines()) if m}


def run_triage(seed: int, seconds: float, tracer, tiny: bool) -> Outcome:
    from repro.__main__ import main as cli_main
    from repro.core.literace import LiteRace
    from repro.detector.flat import FlatDetector
    from repro.eventlog.encode import read_log_header
    from repro.eventlog.store import save_log

    outcome = Outcome()
    programs = TINY_PROGRAMS if tiny else PROGRAMS
    log_dir = os.path.join(OUT_DIR, f"triage-{os.getpid()}")
    os.makedirs(log_dir, exist_ok=True)

    def setup():
        """Write the logs; keep only what the timed phase reads: the
        program (planted keys, symbols), the path and the event count."""
        logs = []
        for name, program in _build(seed, programs):
            for sampler in SAMPLERS:
                result = LiteRace(sampler=sampler, seed=seed).run(program)
                path = os.path.join(log_dir, f"{name}-{sampler}.ltrc")
                save_log(result.log, path)
                logs.append((name, sampler, program, path,
                             len(result.log.events)))
                del result
        return logs

    try:
        setup_s, raw_setup_s, logs = _repeat_setup(setup,
                                                   SETUP_REPEATS["triage"])
        log_bytes = float(sum(os.path.getsize(entry[3]) for entry in logs))
        with open(logs[0][3], "rb") as handle:
            version = read_log_header(handle.read(8))[0]
        total_events = sum(entry[4] for entry in logs)
        expected = {(name, sampler): planted_keys(program)
                    for name, sampler, program, _, _ in logs}
        _start_timed_phase(outcome)

        def analyze_all() -> Tuple[float, List[float], list]:
            started = time.perf_counter()
            requests, outputs = [], []
            for name, sampler, program, path, _ in logs:
                sink = io.StringIO()
                begun = time.perf_counter()
                with contextlib.redirect_stdout(sink):
                    status = cli_main(["analyze", path])
                requests.append((time.perf_counter() - begun) * 1e3)
                outputs.append((name, sampler, program, status,
                                sink.getvalue()))
            elapsed = time.perf_counter() - started
            found_by_log = []
            for name, sampler, program, status, text in outputs:
                outcome.attempted += 1
                if status != 0:
                    outcome.failed += 1
                found, want = _parse_races(text), expected[name, sampler]
                found_by_log.append((program, found))
                if sampler == "Full":
                    outcome.check(found == want,
                                  f"triage {name}/Full: extra "
                                  f"{sorted(found - want)}, missing "
                                  f"{sorted(want - found)}")
                else:
                    outcome.check(found <= want,
                                  f"triage {name}/{sampler}: non-planted "
                                  f"{sorted(found - want)}")
            return elapsed, requests, found_by_log

        def one_pass() -> Pass:
            before = host_speed()
            elapsed, requests, found_by_log = analyze_all()
            query_ms = _timed_ms(lambda: _symbolize_races(found_by_log))
            speed = (before + host_speed()) / 2
            return Pass(elapsed, total_events, requests, [query_ms], speed)

        def traced_pass():
            mark = tracer.mark()
            tracer.set_active(True)
            try:
                elapsed, _, _ = analyze_all()
            finally:
                tracer.set_active(False)
            by_name, by_layer = tracer.summary(mark)
            detect_s = self_time(by_name, "feed_all", "feed_batch")
            return elapsed, {
                "eventlog.decode_s": self_time(
                    by_name, "decode_log", "SegmentBatcher.push",
                    "SegmentBatcher.flush"),
                "detector.merge_s": self_time(by_name, "merge_thread_logs"),
                "detector.detect_s": detect_s,
                "detector.events_per_s": total_events / detect_s,
                "trace.layer_sum_s": sum(by_layer.values()),
            }

        passes, traced = _measure(one_pass, seconds,
                                  traced_pass if tracer is not None else None)
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)

    if tracer is None:
        _end_to_end(outcome, setup_s, raw_setup_s, passes)
        return outcome
    metrics = _layer_metrics(outcome, passes, traced,
                             ("runtime", "core", "eventlog", "service",
                              "scenarios", "loadgen"))
    metrics["eventlog.log_bytes"] = log_bytes
    metrics["eventlog.format_version"] = float(version)
    metrics["detector.kernel"] = float(
        FlatDetector("hb").kernel == "numpy")
    return outcome
