"""Smoke target: scenarios + loadgen are exercised end to end on every PR.

Two halves, both driving the real CLI in subprocesses (wired into CI as
``make scenarios-smoke``):

* ``repro scenario --all --check`` builds every catalog scenario from its
  declarative spec at a tiny scale and verifies that Full logging finds
  exactly the planted ground truth;
* ``repro serve`` + ``repro loadgen`` replays a 1000-request traffic
  trace as concurrent submissions into a live telemetry server — the
  fleet shape the scenario subsystem exists to model — and the server's
  status must account for every connection.
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

LOADGEN_REQUESTS = 1000
LOADGEN_CONCURRENCY = 12


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _repro(*argv, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT, env=_env(), capture_output=True, text=True,
        timeout=timeout,
    )


def test_scenario_check_cli_smoke():
    check = _repro("scenario", "--all", "--check", "--scale", "0.05",
                   "--seed", "1")
    assert check.returncode == 0, check.stdout[-4000:] + check.stderr[-2000:]
    # One OK line per catalog scenario, no failures.
    assert check.stdout.count("check   : OK") == 4, check.stdout[-4000:]
    assert "FAIL" not in check.stdout


def test_scenario_derive_cli_smoke():
    out = _repro("scenario", "kv-store", "--json",
                 "--set", "pools.readers.threads=3")
    assert out.returncode == 0, out.stderr[-2000:]
    spec = json.loads(out.stdout)
    readers = next(p for p in spec["pools"] if p["name"] == "readers")
    assert readers["threads"] == 3


def test_loadgen_sustains_fleet_volume():
    # AF_UNIX paths are limited to ~108 bytes; pytest tmp_path can exceed
    # that, so the socket lives in a short-named mkdtemp instead.
    sock = os.path.join(
        tempfile.mkdtemp(prefix="reproldg-", dir="/tmp"), "sock")
    address = f"unix:{sock}"

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--unix", sock,
         "--workers", "2"],
        cwd=REPO_ROOT, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not os.path.exists(sock):
            assert server.poll() is None, server.stdout.read()[-4000:]
            assert time.monotonic() < deadline, "server never bound socket"
            time.sleep(0.05)

        loadgen = _repro(
            "loadgen", "kv-store", "--connect", address,
            "--requests", str(LOADGEN_REQUESTS),
            "--concurrency", str(LOADGEN_CONCURRENCY),
            "--seed", "1", timeout=580)
        assert loadgen.returncode == 0, \
            loadgen.stdout[-4000:] + loadgen.stderr[-2000:]
        assert (f"{LOADGEN_REQUESTS}/{LOADGEN_REQUESTS} submissions ok "
                "(0 failed)") in loadgen.stdout, loadgen.stdout[-4000:]

        status = _repro("status", "--connect", address, "--json",
                        "--shutdown")
        assert status.returncode == 0, status.stderr[-2000:]
        payload = json.loads(status.stdout)
        assert payload["status"]["clients_completed"] == LOADGEN_REQUESTS
        assert payload["status"]["clients_aborted"] == 0
        assert payload["status"]["worker_failures"] == 0

        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
