"""Smoke tests for the bench harness and the committed BENCH trajectory.

``make bench-smoke`` (and tier-1, via this file) runs the real harness at
tiny scale: every stream generator, both timed sides, the equivalence gate,
the server worker loop, the online flush-size sweep, and the schema
validator all execute.  Numbers from a smoke run are meaningless — only the
shape is asserted here.

The committed ``BENCH_detector.json`` at the repo root is also validated,
so a PR can't land a hand-edited or schema-drifted trajectory file.
"""

import json
import pathlib

import pytest

from repro import bench

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SMOKE_EVENTS = 2_000


@pytest.fixture(scope="module")
def smoke_entry():
    return bench.run_bench(events_per_stream=SMOKE_EVENTS, repeats=1,
                           segment_events=256)


class TestHarness:
    def test_streams_are_deterministic(self):
        for name in bench.STREAMS:
            assert bench.build_stream(name, 500) == \
                bench.build_stream(name, 500)

    def test_smoke_run_passes_schema(self, smoke_entry):
        assert bench.validate_entry(smoke_entry) == []

    def test_smoke_run_covers_every_stream(self, smoke_entry):
        assert set(smoke_entry["streams"]) == set(bench.STREAMS)
        for row in smoke_entry["streams"].values():
            assert row["events"] == SMOKE_EVENTS
            assert row["memory_events"] + row["sync_events"] == SMOKE_EVENTS
            assert row["reference_events_per_sec"] > 0
            assert row["flat_events_per_sec"] > 0

    def test_entry_records_active_kernel(self, smoke_entry):
        assert smoke_entry["kernel"] == "pure"

    def test_server_section_populated(self, smoke_entry):
        server = smoke_entry["server"]
        assert server["segments"] > 0
        assert server["segments_per_sec"] > 0

    def test_online_sweep_covers_every_size(self, smoke_entry):
        online = smoke_entry["online"]
        assert set(online["events_per_sec"]) == \
            {str(size) for size in bench.ONLINE_SWEEP_SIZES}
        assert online["best_flush_events"] in bench.ONLINE_SWEEP_SIZES
        best = online["events_per_sec"][str(online["best_flush_events"])]
        assert best == max(online["events_per_sec"].values())

    def test_write_rejects_invalid_entry(self, tmp_path, smoke_entry):
        broken = dict(smoke_entry)
        del broken["streams"]
        with pytest.raises(ValueError):
            bench.write_bench(broken, str(tmp_path / "broken.json"))

    def test_write_and_reload(self, tmp_path, smoke_entry):
        path = tmp_path / "BENCH_detector.json"
        bench.write_bench(smoke_entry, str(path))
        reloaded = json.loads(path.read_text())
        assert bench.validate_bench(reloaded) == []
        assert len(reloaded["trajectory"]) == 1

    def test_write_appends_to_trajectory(self, tmp_path, smoke_entry):
        path = tmp_path / "BENCH_detector.json"
        bench.write_bench(smoke_entry, str(path))
        bench.write_bench(smoke_entry, str(path))
        reloaded = json.loads(path.read_text())
        assert bench.validate_bench(reloaded) == []
        assert len(reloaded["trajectory"]) == 2

    def test_write_migrates_schema1_file(self, tmp_path, smoke_entry):
        # A pre-trajectory file becomes the first entry instead of being
        # overwritten: history survives the schema bump.
        old = {
            "schema": 1,
            "bench": "detector",
            "generated": "2026-01-01",
            "config": dict(smoke_entry["config"]),
            "streams": json.loads(json.dumps(smoke_entry["streams"])),
            "geomean_speedup": 2.5,
            "server": dict(smoke_entry["server"]),
        }
        path = tmp_path / "BENCH_detector.json"
        path.write_text(json.dumps(old))
        bench.write_bench(smoke_entry, str(path))
        reloaded = json.loads(path.read_text())
        assert bench.validate_bench(reloaded) == []
        first, second = reloaded["trajectory"]
        assert first["kernel"] == "pure"
        assert first["geomean_speedup"] == 2.5
        assert "online" not in first
        assert second["geomean_speedup"] == smoke_entry["geomean_speedup"]


class TestValidator:
    def _doc(self, entry):
        return {"schema": bench.SCHEMA_VERSION, "bench": "detector",
                "trajectory": [json.loads(json.dumps(entry))]}

    def test_rejects_non_object(self):
        assert bench.validate_bench([]) != []

    def test_rejects_wrong_schema_version(self, smoke_entry):
        doc = self._doc(smoke_entry)
        doc["schema"] = 999
        assert any("schema" in p for p in bench.validate_bench(doc))

    def test_rejects_empty_trajectory(self):
        doc = {"schema": bench.SCHEMA_VERSION, "bench": "detector",
               "trajectory": []}
        assert any("trajectory" in p for p in bench.validate_bench(doc))

    def test_rejects_missing_stream_field(self, smoke_entry):
        doc = self._doc(smoke_entry)
        del doc["trajectory"][0]["streams"]["private_mixed"]["speedup"]
        assert any("speedup" in p for p in bench.validate_bench(doc))

    def test_rejects_missing_server_field(self, smoke_entry):
        doc = self._doc(smoke_entry)
        del doc["trajectory"][0]["server"]["segments_per_sec"]
        assert any("server" in p for p in bench.validate_bench(doc))

    def test_rejects_bad_kernel(self, smoke_entry):
        doc = self._doc(smoke_entry)
        doc["trajectory"][0]["kernel"] = "cython"
        assert any("kernel" in p for p in bench.validate_bench(doc))


class TestCommittedTrajectory:
    def test_bench_detector_json_exists_and_validates(self):
        path = REPO_ROOT / "BENCH_detector.json"
        assert path.exists(), "BENCH_detector.json missing at repo root"
        doc = json.loads(path.read_text())
        assert bench.validate_bench(doc) == []

    def test_committed_numbers_meet_the_bar(self):
        # The acceptance criteria: every entry keeps the PR 6 bar (>= 2x
        # over the per-event reference on every stream), and the latest
        # entry — the vectorized kernel — beats the committed 3.21x
        # geomean.  This asserts the *committed* trajectory, not this
        # machine's timing, so it is stable under CI noise.
        doc = json.loads((REPO_ROOT / "BENCH_detector.json").read_text())
        for entry in doc["trajectory"]:
            assert entry["geomean_speedup"] >= 2.0
            for name, row in entry["streams"].items():
                assert row["speedup"] >= 2.0, f"stream {name} below 2x"
        latest = doc["trajectory"][-1]
        assert latest["geomean_speedup"] > 3.21
        assert latest["kernel"] == "numpy"
