"""Smoke target: the telemetry CLI is exercised end to end on every PR.

Starts ``python -m repro serve`` in a subprocess on a Unix socket, profiles
a workload with ``run --log-out``, submits the log twice from two
concurrent ``submit`` subprocesses (two "fleet machines" reporting the
same binary), then checks ``status --report --json``: the fleet report
must be deduplicated — same static races as one submission, doubled
dynamic occurrence counts — and shutdown must be clean.  Wired into CI as
``make serve-smoke``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _repro(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT, env=_env(), capture_output=True, text=True,
        timeout=300, **kwargs,
    )


def test_serve_submit_status_cli_smoke(tmp_path):
    # AF_UNIX paths are limited to ~108 bytes; pytest tmp_path can exceed
    # that, so the socket lives in a short-named mkdtemp instead.
    sock = os.path.join(
        tempfile.mkdtemp(prefix="reprosmk-", dir="/tmp"), "sock")
    address = f"unix:{sock}"
    log_path = tmp_path / "run.ltrc"

    run = _repro("run", "synthetic", "--sampler", "Full",
                 "--scale", "0.05", "--log-out", str(log_path))
    assert run.returncode == 0, run.stderr[-4000:]
    assert log_path.exists()

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--unix", sock,
         "--workers", "2",
         "--workload", "synthetic", "--scale", "0.05"],
        cwd=REPO_ROOT, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(sock):
            assert server.poll() is None, server.stdout.read()[-4000:]
            assert time.monotonic() < deadline, "server never bound socket"
            time.sleep(0.05)

        submits = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "submit", str(log_path),
                 "--connect", address, "--name", f"machine-{i}",
                 "--segment-events", "64", "--compress"],
                cwd=REPO_ROOT, env=_env(),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for i in range(2)
        ]
        races_per_submit = set()
        for proc in submits:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err[-4000:]
            for line in out.splitlines():
                if "server found" in line:
                    races_per_submit.add(
                        int(line.split("server found")[1].split()[0]))
        assert len(races_per_submit) == 1, "submissions disagreed on races"
        races = races_per_submit.pop()
        assert races >= 1  # two-thread-racer must race

        status = _repro("status", "--connect", address, "--report",
                        "--json", "--shutdown")
        assert status.returncode == 0, status.stderr[-4000:]
        payload = json.loads(status.stdout)

        assert payload["status"]["clients_completed"] == 2
        assert payload["status"]["clients_aborted"] == 0
        assert payload["status"]["worker_failures"] == 0
        report = payload["report"]
        # Deduplication: two identical logs fold into the same static
        # races, with every occurrence counted once per submission.
        assert report["num_static"] == races
        assert report["num_dynamic"] % 2 == 0
        for row in report["report"]["races"]:
            assert row["count"] % 2 == 0
            assert len(row["symbols"]) == 2  # symbolized via --workload

        assert server.wait(timeout=60) == 0
        assert "telemetry server stopped" in server.stdout.read()
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
