"""Command-line interface: run LiteRace on a workload and report races.

Examples::

    python -m repro run apache-1 --sampler TL-Ad --seed 1
    python -m repro run dryad --sampler Full --scale 0.2
    python -m repro compare firefox-render --seeds 1,2
    python -m repro list

Telemetry service (fleet-style central triage)::

    python -m repro serve --unix /tmp/literace.sock --workers 4
    python -m repro submit run1.ltrc --connect unix:/tmp/literace.sock
    python -m repro run apache-1 --telemetry unix:/tmp/literace.sock
    python -m repro status --connect unix:/tmp/literace.sock --report
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import workloads
from .analysis.tables import format_percent, format_table
from .core.literace import LiteRace, run_baseline, run_marked
from .core.samplers import SAMPLER_ORDER
from .detector.flat import FlatDetector
from .eventlog.events import SyncEvent


def _cmd_list(args) -> int:
    rows = []
    for name in workloads.names():
        spec = workloads.get(name)
        flags = []
        if spec.in_race_eval:
            flags.append("race-eval")
        if spec.in_overhead_eval:
            flags.append("overhead-eval")
        rows.append([name, spec.title, ", ".join(flags) or "-",
                     spec.description])
    print(format_table(["name", "title", "studies", "description"], rows,
                       title="Registered workloads"))
    return 0


def _cmd_workloads(args) -> int:
    """Enumerate the registry with eval membership and planted-race
    counts (``repro workloads list [--json]``)."""
    import json

    if args.action != "list":
        print("workloads: unknown action; try `repro workloads list`",
              file=sys.stderr)
        return 2
    rows = []
    for name in workloads.names():
        spec = workloads.get(name)
        program = spec.build(seed=1, scale=0.05)
        planted = program.planted_races or ()
        rows.append({
            "name": name,
            "title": spec.title,
            "tags": list(spec.tags),
            "race_eval": spec.in_race_eval,
            "overhead_eval": spec.in_overhead_eval,
            "planted_races": len(planted),
            "planted_keys": sum(len(p.keys) for p in planted),
        })
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    table_rows = []
    for row in rows:
        studies = [label for label, member in
                   (("race-eval", row["race_eval"]),
                    ("overhead-eval", row["overhead_eval"])) if member]
        table_rows.append([
            row["name"], ", ".join(row["tags"]) or "-",
            ", ".join(studies) or "-",
            f"{row['planted_races']} ({row['planted_keys']} keys)",
        ])
    print(format_table(["name", "tags", "studies", "planted races"],
                       table_rows, title="Workload registry"))
    return 0


def _coerce_override(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _scenario_overrides(pairs):
    """Turn ``pools.readers.threads=12`` pairs into a nested override dict."""
    overrides = {}
    for pair in pairs or ():
        path, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"--set needs key=value, got {pair!r}")
        node = overrides
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = _coerce_override(value)
    return overrides


def _cmd_scenario(args) -> int:
    """Inspect, parameterize, and check declarative scenarios."""
    import json

    from . import scenarios
    from .core.literace import LiteRace as _LiteRace

    names = scenarios.scenario_names() if args.all else [args.name]
    if not args.all and args.name is None:
        print("scenario: name a scenario or pass --all; known: "
              + ", ".join(scenarios.scenario_names()), file=sys.stderr)
        return 2

    failures = 0
    for name in names:
        spec = scenarios.scenario(name)
        if args.set:
            spec = spec.derive(_scenario_overrides(args.set))
        scale = args.scale
        if args.requests:
            scale = spec.scale_for_requests(args.requests)
        if args.json:
            print(json.dumps(spec.to_dict(), indent=2))
            continue
        program = scenarios.compile_scenario(spec, seed=args.seed,
                                             scale=scale)
        planted = program.planted_races or ()
        pools = ", ".join(f"{p.name}×{p.threads}" for p in spec.pools)
        print(f"{spec.name}: {spec.title}")
        print(f"  pools   : {pools} ({spec.total_threads} threads)")
        print(f"  regions : "
              + ", ".join(f"{r.name}[{r.kind}]" for r in spec.regions))
        print(f"  races   : "
              + ", ".join(f"{r.name}({r.rate})" for r in spec.races))
        print(f"  compiled: scale {scale:g} -> {program.num_functions} "
              f"functions, {len(planted)} planted sites "
              f"({sum(len(p.keys) for p in planted)} keys)")
        if args.check:
            expected = {key for site in planted for key in site.keys}
            result = _LiteRace(sampler="Full", seed=args.seed).run(program)
            found = result.report.static_races
            if found == expected:
                print(f"  check   : OK — Full logging finds exactly the "
                      f"{len(expected)} planted keys "
                      f"({len(result.log.events):,} events)")
            else:
                failures += 1
                print(f"  check   : FAIL — extra {sorted(found - expected)}, "
                      f"missing {sorted(expected - found)}")
    return 1 if failures else 0


def _cmd_loadgen(args) -> int:
    """Stream trace-driven scenario traffic into a telemetry server."""
    from . import scenarios
    from .scenarios.loadgen import LoadGenerator

    spec = scenarios.scenario(args.scenario)
    if args.set:
        spec = spec.derive(_scenario_overrides(args.set))
    generator = LoadGenerator(
        spec, args.connect,
        requests=args.requests,
        concurrency=args.concurrency,
        seed=args.seed,
        template_scale=args.template_scale,
        templates=args.templates,
        max_template_events=args.template_events,
        segment_events=args.segment_events,
        compress=args.compress,
    )
    generator.prepare()
    print(f"loadgen: {len(generator._templates)} template(s) of "
          + ", ".join(str(count) for _, count in generator._templates)
          + f" events; replaying against {args.connect} ...", flush=True)
    stats = generator.run()
    print(stats.summary())
    return 0 if stats.failed == 0 and stats.completed == stats.requests else 1


def _cmd_run(args) -> int:
    program = workloads.build(args.workload, seed=args.seed,
                              scale=args.scale)
    baseline = run_baseline(program, seed=args.seed)
    tool = LiteRace(sampler=args.sampler, seed=args.seed,
                    num_counters=args.counters,
                    static_prune=args.static_prune)
    sink = None
    telemetry_client = None
    if args.telemetry:
        from .service import TelemetryClient, TelemetrySink

        telemetry_client = TelemetryClient(args.telemetry)
        sink = TelemetrySink(telemetry_client,
                             name=f"{program.name}/seed{args.seed}")
    result = tool.run(program, sink=sink)
    if sink is not None:
        ack = sink.close()
        telemetry_client.close()
        print(f"telemetry: streamed {sink.events_sent:,} events in "
              f"{sink.segments_sent} segment(s) to {args.telemetry}; "
              f"server reports {ack.get('races', 0)} race(s) for this run")
    if result.static_report is not None:
        static = result.static_report
        print(f"static pruning: {static.num_pruned} of "
              f"{static.num_memory_pcs} memory-op sites provably "
              f"race-free; {result.run.pruned_memory_ops:,} log calls "
              f"skipped this run")
    if args.log_out:
        from .eventlog.store import save_log

        written = save_log(result.log, args.log_out)
        print(f"log written to {args.log_out} ({written:,} bytes)")

    from .core.triage import render_triage

    if args.suppressions:
        from .core.suppressions import SuppressionList

        with open(args.suppressions) as handle:
            rules = SuppressionList.parse(handle.read())
        kept, suppressed = rules.split(result.report, program)
        if suppressed.num_static:
            print(f"({suppressed.num_static} known-benign race(s) "
                  f"suppressed by {args.suppressions})")
        result.report = kept

    verdicts = None
    if args.validate and result.report.occurrences:
        from .validate import DirectorConfig, pairs_from_report, validate_pairs

        validation = validate_pairs(
            program, pairs_from_report(result.report),
            config=DirectorConfig(budget=args.budget, base_seed=args.seed),
            minimize=args.minimize,
            static_report=result.static_report,
            workload=args.workload, seed=args.seed, scale=args.scale,
            source="run",
        )
        verdicts = validation.verdict_map()
        if args.witness_dir:
            saved = validation.save_witnesses(args.witness_dir)
            print(f"validation: {saved} witness trace(s) written to "
                  f"{args.witness_dir}")

    header = (f"{program.name}: {program.num_functions} functions, "
              f"{baseline.memory_ops:,} memory ops, "
              f"{baseline.threads_created} threads — sampler "
              f"{tool.sampler.short_name}")
    print(render_triage(program, result, title=header, verdicts=verdicts))
    return 0


def _cmd_validate(args) -> int:
    """Actively validate candidate race pairs from a log, a telemetry
    report, or the static pass — confirm with replayable witnesses."""
    import json
    import os

    from .validate import (
        DirectorConfig,
        pairs_from_log,
        pairs_from_static,
        pairs_from_telemetry,
        validate_pairs,
    )

    source = args.source
    if source == "auto":
        if args.target in workloads.names():
            source = "static"
        elif args.target.endswith(".json"):
            source = "telemetry"
        else:
            source = "log"

    if source == "static":
        workload = args.workload or args.target
    else:
        workload = args.workload
        if not workload:
            print("validate: --workload is required to rebuild the program "
                  "the log/report came from", file=sys.stderr)
            return 2
    program = workloads.build(workload, seed=args.seed, scale=args.scale)

    static_report = None
    if source == "log":
        from .eventlog.store import load_log

        pairs = pairs_from_log(load_log(args.target))
    elif source == "telemetry":
        with open(args.target, "r", encoding="utf-8") as handle:
            pairs = pairs_from_telemetry(json.load(handle))
    elif source == "static":
        from .staticpass import analyze

        static_report = analyze(program)
        pairs = pairs_from_static(static_report)
    else:
        print(f"validate: unknown source {source!r}", file=sys.stderr)
        return 2

    if not pairs:
        print(f"validate: no candidate pairs from {source} source — "
              f"nothing to do")
        return 0
    print(f"validating {len(pairs)} candidate pair(s) from {source} "
          f"source against {program.name} "
          f"(budget {args.budget} attempt(s)/pair)...")

    report = validate_pairs(
        program, pairs,
        config=DirectorConfig(budget=args.budget, base_seed=args.seed),
        minimize=args.minimize, static_report=static_report,
        workload=workload, seed=args.seed, scale=args.scale, source=source,
    )

    witness_dir = args.witness_dir
    if witness_dir is None and args.out:
        witness_dir = os.path.splitext(args.out)[0] + "_witnesses"
    if witness_dir and report.confirmed:
        saved = report.save_witnesses(witness_dir)
        print(f"{saved} witness trace(s) written to {witness_dir}")
    if args.out:
        report.save(args.out, program)
        print(f"validation report written to {args.out}")
    if args.suppressions_out:
        rules = report.to_suppressions(program)
        with open(args.suppressions_out, "w", encoding="utf-8") as handle:
            handle.write(rules.to_text())
        print(f"{len(rules)} infeasible-pair suppression rule(s) written "
              f"to {args.suppressions_out}")

    for line in report.summary_lines(program):
        print(line)
    return 0


def _cmd_analyze(args) -> int:
    """Offline analysis of a saved log (§4.4: profile now, triage later)."""
    from .eventlog.encode import read_log_header

    with open(args.log, "rb") as handle:
        data = handle.read()
    version, sections, offset = read_log_header(data)
    detector = FlatDetector("hb", alloc_as_sync=not args.no_alloc_sync)

    if version == 2:
        # Segmented logs carry the interleaving on the wire, so each frame
        # is decoded and detected as it is read — no event objects, no
        # merge pass.
        from .eventlog.segment import SegmentBatcher

        sync_count = 0
        memory_count = 0
        threads = set()

        def sink(cols) -> None:
            nonlocal sync_count, memory_count
            sync_count += cols.sync_count
            memory_count += cols.memory_count
            threads.update(cols.tids)
            detector.feed_batch(cols)

        push = SegmentBatcher(sink).push
        for _ in range(sections):
            _, offset = push(data, offset)
        if offset != len(data):
            raise ValueError("trailing bytes after last segment")
        num_threads = len(threads)
        inconsistencies = 0
    else:
        # Per-thread logs: decode to columns, rebuild the processing order
        # from the sync timestamps, detect in one batch — still no event
        # objects.
        from .detector.merge import merge_thread_columns
        from .eventlog.encode import decode_log_columns

        cols, sections = decode_log_columns(data)
        merged, inconsistencies = merge_thread_columns(cols, sections)
        del cols  # the detector needs only the merged copy
        detector.feed_batch(merged)
        sync_count = merged.sync_count
        memory_count = merged.memory_count
        num_threads = len(sections)
    report = detector.report

    print(f"log      : {args.log} — {sync_count:,} sync events, "
          f"{memory_count:,} memory events, "
          f"{num_threads} threads")
    if inconsistencies:
        print(f"WARNING  : {inconsistencies} timestamp "
              f"inconsistencies during order reconstruction")
    if not report.num_static:
        print("no data races detected")
        return 0
    print(f"{report.num_static} static data race(s) "
          f"({report.num_dynamic} dynamic):")
    for pc1, pc2, count in report.summary_rows():
        example = report.examples[(pc1, pc2)]
        print(f"  pcs ({pc1}, {pc2})  seen {count}x  "
              f"e.g. addr {example.addr:#x} between threads "
              f"{example.first_tid} and {example.second_tid}")
    return 0


def _cmd_staticpass(args) -> int:
    """Run the static race-freedom analysis; optionally cross-check it
    against the full-logging dynamic oracle (soundness gate)."""
    from .staticpass import analyze

    if args.all:
        names = list(workloads.names())
    elif args.workload:
        names = [args.workload]
    else:
        print("staticpass: name a workload or pass --all", file=sys.stderr)
        return 2

    violations = 0
    for name in names:
        program = workloads.build(name, seed=args.seed, scale=args.scale)
        report = analyze(program)
        if args.verbose or len(names) == 1:
            print(report.render())
        else:
            print(f"{name:18} {report.num_pruned:>3} of "
                  f"{report.num_memory_pcs:>3} sites prunable, "
                  f"{len(report.candidate_pairs)} candidate pair(s)")
        planted_missed = report.check_planted(program)
        for low, high in planted_missed:
            violations += 1
            print(f"  SOUNDNESS VIOLATION (planted): "
                  f"{program.symbolize(low)} <-> {program.symbolize(high)}")
        if args.check:
            oracle = LiteRace(sampler="Full", seed=args.seed).run(program)
            pruned = LiteRace(sampler="Full", seed=args.seed,
                              static_prune=True).run(program)
            lost = (oracle.report.static_races
                    - pruned.report.static_races)
            statically_missed = report.cross_check(
                oracle.report.static_races)
            for low, high in sorted(set(lost) | set(statically_missed)):
                violations += 1
                print(f"  SOUNDNESS VIOLATION (dynamic): "
                      f"{program.symbolize(low)} <-> "
                      f"{program.symbolize(high)}")
            before = oracle.run.sampled_memory_ops
            after = pruned.run.sampled_memory_ops
            cut = (1 - after / before) if before else 0.0
            print(f"  oracle races {len(oracle.report.static_races)}, "
                  f"with pruning {len(pruned.report.static_races)}; "
                  f"logged memory ops {before:,} -> {after:,} "
                  f"(-{cut:.0%})")
    if violations:
        print(f"{violations} soundness violation(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    """Run the race-telemetry daemon until SHUTDOWN or Ctrl-C."""
    from .service import TelemetryServer

    addresses = []
    if args.unix:
        addresses.append(f"unix:{args.unix}")
    if args.tcp:
        addresses.append(f"tcp:{args.tcp}")
    if not addresses:
        print("serve: pass --unix PATH and/or --tcp HOST:PORT",
              file=sys.stderr)
        return 2

    program = None
    if args.workload:
        program = workloads.build(args.workload, seed=args.seed,
                                  scale=args.scale)
    suppressions = None
    if args.suppressions:
        from .core.suppressions import SuppressionList

        with open(args.suppressions) as handle:
            suppressions = SuppressionList.parse(handle.read())

    server = TelemetryServer(
        addresses,
        workers=args.workers,
        queue_depth=args.queue_depth,
        state_dir=args.state_dir,
        program=program,
        suppressions=suppressions,
    )
    server.start()
    print(f"telemetry server listening on {', '.join(server.addresses)} — "
          f"{args.workers} worker(s)",
          flush=True)
    server.serve_forever()
    print("telemetry server stopped")
    return 0


def _cmd_submit(args) -> int:
    """Stream a saved log and/or validation verdicts to a telemetry
    server."""
    from .service import TelemetryClient

    if not args.log and not args.verdicts:
        print("submit: pass a log file and/or --verdicts FILE",
              file=sys.stderr)
        return 2

    with TelemetryClient(args.connect) as client:
        if args.log:
            from .eventlog.store import load_log

            log = load_log(args.log)
            result = client.submit_log(
                log,
                name=args.name or args.log,
                segment_events=args.segment_events,
                compress=args.compress,
            )
            print(f"submitted {args.log}: {result.events:,} events in "
                  f"{result.segments} segment(s), {result.bytes_sent:,} "
                  f"bytes on the wire; server found {result.races} race(s) "
                  f"in this log")
            if result.merge_inconsistencies:
                print(f"WARNING  : {result.merge_inconsistencies} timestamp "
                      f"inconsistencies during order reconstruction")
        if args.verdicts:
            from .validate import ValidationReport

            report = ValidationReport.load(args.verdicts)
            rows = [{"pcs": list(entry.pair),
                     "verdict": entry.verdict.value}
                    for entry in report.verdicts]
            accepted = client.submit_verdicts(rows)
            print(f"submitted {accepted} validation verdict(s) from "
                  f"{args.verdicts}")
    return 0


def _cmd_status(args) -> int:
    """Query a running telemetry server's counters (and report)."""
    import json

    from .service import TelemetryClient

    with TelemetryClient(args.connect) as client:
        status = client.status()
        report = client.report() if args.report else None
        if args.shutdown:
            client.shutdown_server()

    if args.json:
        payload = {"status": status}
        if report is not None:
            payload["report"] = report
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print("telemetry server status")
    print("=======================")
    for key in sorted(status):
        if key != "shard_lag":
            print(f"{key:18}: {status[key]}")
    lag = status.get("shard_lag", {})
    if lag:
        rendered = ", ".join(f"w{k}={v}" for k, v in sorted(lag.items()))
        print(f"{'shard_lag':18}: {rendered}")
    if report is not None:
        print(f"\nfleet report: {report['num_static']} static race(s), "
              f"{report['num_dynamic']} dynamic occurrence(s) across "
              f"{report['clients_completed']} completed client(s)"
              + (f", {report['suppressed']} suppressed"
                 if report.get("suppressed") else ""))
        for row in report["report"]["races"]:
            symbols = row.get("symbols")
            where = (f"{symbols[0]} <-> {symbols[1]}" if symbols
                     else f"pcs ({row['pcs'][0]}, {row['pcs'][1]})")
            print(f"  {where}  seen {row['count']}x  "
                  f"e.g. addr {row['example']['addr']:#x}")
    if args.shutdown:
        print("\nshutdown requested")
    return 0


def _cmd_compare(args) -> int:
    seeds = tuple(int(s) for s in args.seeds.split(",") if s)
    samplers = list(SAMPLER_ORDER)
    totals = {name: [0, 0] for name in samplers}
    esrs = {name: [] for name in samplers}
    for seed in seeds:
        program = workloads.build(args.workload, seed=seed,
                                  scale=args.scale)
        marked = run_marked(program, samplers, seed=seed)
        full = FlatDetector("hb")
        full.feed_all(marked.log.events)
        reference = full.report.static_races
        for name in samplers:
            bit = marked.harness.sampler_bit(name)
            sub = FlatDetector("hb")
            sub.feed_all(
                e for e in marked.log.events
                if isinstance(e, SyncEvent) or (e.mask & (1 << bit))
            )
            totals[name][0] += len(sub.report.static_races & reference)
            totals[name][1] += len(reference)
            esrs[name].append(marked.log.memory_logged_by(bit)
                              / max(1, marked.log.memory_count))
    rows = []
    for name in samplers:
        found, reference = totals[name]
        esr = sum(esrs[name]) / len(esrs[name])
        rate = found / reference if reference else float("nan")
        rows.append([name, format_percent(esr), f"{found}/{reference}",
                     format_percent(rate)])
    print(format_table(
        ["sampler", "ESR", "races found", "detection rate"], rows,
        title=f"Sampler comparison on {args.workload} "
              f"(seeds {','.join(map(str, seeds))})",
    ))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: building it
    costs far more than parsing one command line, which callers running
    many commands in one process would pay on every call."""
    parser = argparse.ArgumentParser(
        prog="repro", description="LiteRace (PLDI 2009) reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered workloads")

    wl_p = sub.add_parser(
        "workloads", help="registry tooling (workloads list [--json])")
    wl_p.add_argument("action", nargs="?", default="list",
                      help="only `list` for now")
    wl_p.add_argument("--json", action="store_true",
                      help="machine-readable output")

    scn_p = sub.add_parser(
        "scenario", help="inspect/parameterize/check declarative scenarios")
    scn_p.add_argument("name", nargs="?", default=None,
                       help="a scenario from the catalog")
    scn_p.add_argument("--all", action="store_true",
                       help="every catalog scenario")
    scn_p.add_argument("--json", action="store_true",
                       help="dump the declarative spec as JSON")
    scn_p.add_argument("--check", action="store_true",
                       help="compile and verify Full logging finds exactly "
                            "the planted race keys")
    scn_p.add_argument("--seed", type=int, default=1)
    scn_p.add_argument("--scale", type=float, default=1.0)
    scn_p.add_argument("--requests", type=int, default=None,
                       help="compile at the scale serving this many "
                            "requests (overrides --scale)")
    scn_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override spec fields by dotted path, e.g. "
                            "--set pools.readers.threads=12 (repeatable)")

    lg_p = sub.add_parser(
        "loadgen", help="replay trace-driven scenario traffic into a "
                        "telemetry server at volume")
    lg_p.add_argument("scenario", help="a scenario from the catalog")
    lg_p.add_argument("--connect", required=True, metavar="ADDR",
                      help="server address (unix:PATH or tcp:HOST:PORT)")
    lg_p.add_argument("--requests", type=int, default=None,
                      help="submissions to make (default: the scenario's "
                           "nominal traffic volume)")
    lg_p.add_argument("--concurrency", type=int, default=8,
                      help="concurrent submitter threads (default 8)")
    lg_p.add_argument("--seed", type=int, default=1)
    lg_p.add_argument("--templates", type=int, default=2,
                      help="distinct recorded runs to replay (default 2)")
    lg_p.add_argument("--template-scale", type=float, default=0.02,
                      help="compile scale of each template run")
    lg_p.add_argument("--template-events", type=int, default=400,
                      help="cap events per template (0 = full run)")
    lg_p.add_argument("--segment-events", type=int, default=256,
                      help="events per wire segment (default 256)")
    lg_p.add_argument("--compress", action="store_true",
                      help="zlib-compress segment payloads")
    lg_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                      help="spec overrides by dotted path (see scenario)")

    run_p = sub.add_parser("run", help="profile one workload and report races")
    run_p.add_argument("workload")
    run_p.add_argument("--sampler", default="TL-Ad",
                       help="sampler short name (default TL-Ad)")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument("--counters", type=int, default=128,
                       help="timestamp counters (default 128)")
    run_p.add_argument("--log-out", default=None,
                       help="write the event log to this file")
    run_p.add_argument("--suppressions", default=None,
                       help="file of known-benign races to filter out")
    run_p.add_argument("--static-prune", action="store_true",
                       help="skip logging for accesses the static pass "
                            "proves race-free (repro.staticpass)")
    run_p.add_argument("--telemetry", default=None, metavar="ADDR",
                       help="stream events live to a telemetry server "
                            "(unix:PATH or tcp:HOST:PORT)")
    run_p.add_argument("--validate", action="store_true",
                       help="actively confirm each reported race with "
                            "directed scheduling (repro.validate)")
    run_p.add_argument("--budget", type=int, default=5,
                       help="directed attempts per race pair (default 5)")
    run_p.add_argument("--minimize", action="store_true",
                       help="delta-debug confirmed witnesses to minimal "
                            "reproducers")
    run_p.add_argument("--witness-dir", default=None,
                       help="write confirmed witness traces (.ltrt) here")

    sp_p = sub.add_parser(
        "staticpass",
        help="static race-freedom analysis over a workload's TIR")
    sp_p.add_argument("workload", nargs="?", default=None)
    sp_p.add_argument("--all", action="store_true",
                      help="analyze every registered workload")
    sp_p.add_argument("--seed", type=int, default=1)
    sp_p.add_argument("--scale", type=float, default=1.0)
    sp_p.add_argument("--check", action="store_true",
                      help="also run the full-logging dynamic oracle and "
                           "fail on any race the pruned run loses")
    sp_p.add_argument("--verbose", action="store_true",
                      help="full per-workload verdict breakdown")

    val_p = sub.add_parser(
        "validate",
        help="actively validate reported races: directed scheduling "
             "confirms each candidate pair with a replayable witness")
    val_p.add_argument("target",
                       help="a .ltrc log, a telemetry report.json, or (with "
                            "--source static) a workload name")
    val_p.add_argument("--source", default="auto",
                       choices=["auto", "log", "telemetry", "static"],
                       help="where the candidate pairs come from "
                            "(default: guess from the target)")
    val_p.add_argument("--workload", default=None,
                       help="workload that produced the log/report (used to "
                            "rebuild the program)")
    val_p.add_argument("--seed", type=int, default=1)
    val_p.add_argument("--scale", type=float, default=1.0)
    val_p.add_argument("--budget", type=int, default=5,
                       help="directed attempts per pair (default 5)")
    val_p.add_argument("--minimize", action="store_true",
                       help="delta-debug confirmed witnesses to minimal "
                            "reproducers")
    val_p.add_argument("--out", default=None,
                       help="write the validation report (JSON) here")
    val_p.add_argument("--witness-dir", default=None,
                       help="write witness traces here (default: derived "
                            "from --out)")
    val_p.add_argument("--suppressions-out", default=None,
                       help="export infeasible pairs as suppression rules")

    an_p = sub.add_parser(
        "analyze", help="offline analysis of a saved event log")
    an_p.add_argument("log", help="a .ltrc file written by run --log-out")
    an_p.add_argument("--no-alloc-sync", action="store_true",
                      help="disable the §4.3 allocation-as-sync rule")

    cmp_p = sub.add_parser("compare",
                           help="compare all samplers on one workload (§5.3)")
    cmp_p.add_argument("workload")
    cmp_p.add_argument("--seeds", default="1")
    cmp_p.add_argument("--scale", type=float, default=1.0)

    serve_p = sub.add_parser(
        "serve", help="run the race-telemetry daemon (streaming "
                      "detection over fleet-submitted logs)")
    serve_p.add_argument("--unix", default=None, metavar="PATH",
                         help="listen on this Unix socket")
    serve_p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                         help="listen on this TCP endpoint")
    serve_p.add_argument("--workers", type=int, default=2,
                         help="detector worker processes (default 2)")
    serve_p.add_argument("--queue-depth", type=int, default=64,
                         help="segments in flight per worker (sent and "
                              "not yet analyzed) before a client's next "
                              "SEGMENT waits — the backpressure knob "
                              "(default 64)")
    serve_p.add_argument("--state-dir", default=None,
                         help="persist the rolling fleet report here and "
                              "reload it on restart")
    serve_p.add_argument("--workload", default=None,
                         help="symbolize report PCs against this workload's "
                              "program")
    serve_p.add_argument("--seed", type=int, default=1)
    serve_p.add_argument("--scale", type=float, default=1.0)
    serve_p.add_argument("--suppressions", default=None,
                         help="known-benign races to drop from the fleet "
                              "report (needs --workload)")

    submit_p = sub.add_parser(
        "submit", help="stream a saved event log to a telemetry server")
    submit_p.add_argument("log", nargs="?", default=None,
                          help="a .ltrc file written by run --log-out")
    submit_p.add_argument("--connect", required=True, metavar="ADDR",
                          help="server address (unix:PATH or tcp:HOST:PORT)")
    submit_p.add_argument("--name", default=None,
                          help="client name shown in server accounting")
    submit_p.add_argument("--segment-events", type=int, default=512,
                          help="events per wire segment (default 512)")
    submit_p.add_argument("--compress", action="store_true",
                          help="zlib-compress segment payloads")
    submit_p.add_argument("--verdicts", default=None, metavar="FILE",
                          help="also attach validation verdicts from a "
                               "repro validate --out report")

    status_p = sub.add_parser(
        "status", help="query a telemetry server's counters and report")
    status_p.add_argument("--connect", required=True, metavar="ADDR",
                          help="server address (unix:PATH or tcp:HOST:PORT)")
    status_p.add_argument("--report", action="store_true",
                          help="also fetch the deduped fleet race report")
    status_p.add_argument("--json", action="store_true",
                          help="machine-readable output")
    status_p.add_argument("--shutdown", action="store_true",
                          help="ask the server to shut down afterwards")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {"list": _cmd_list, "run": _cmd_run,
               "analyze": _cmd_analyze, "compare": _cmd_compare,
               "staticpass": _cmd_staticpass, "serve": _cmd_serve,
               "submit": _cmd_submit, "status": _cmd_status,
               "validate": _cmd_validate,
               "workloads": _cmd_workloads, "scenario": _cmd_scenario,
               "loadgen": _cmd_loadgen}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
