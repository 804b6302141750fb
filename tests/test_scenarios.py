"""Tests for the declarative scenario subsystem.

Covers the spec layer (validation, dict round trip, ``derive``), the
compiler's structural safety checks (queue balance, region role
disjointness), the registry integration, the two scenario-level design
invariants — build determinism (same spec + seed → byte-identical encoded
log) and ground truth (Full logging finds exactly the planted races, via
the FlatDetector the tool runs on) — and the traffic generator.
"""

import dataclasses

import pytest

from repro import workloads
from repro.core.literace import LiteRace
from repro.detector.flat import FlatDetector
from repro.eventlog.encode import encode_log
from repro.eventlog.events import SyncEvent
from repro.scenarios import (CATALOG, ScenarioError, ScenarioSpec,
                             compile_scenario, designated_racers, scenario,
                             scenario_names)
from repro.scenarios.spec import (LockSpec, PoolSpec, RaceSpec, RegionSpec,
                                  StepSpec, TrafficSpec)
from repro.scenarios.traffic import bursts, generate_trace

SCENARIOS = scenario_names()


def _minimal_spec(**overrides) -> ScenarioSpec:
    """A small two-pool spec used as the editing base for error tests."""
    base = ScenarioSpec(
        name="mini",
        regions=(RegionSpec("table", elements=4),
                 RegionSpec("stats", elements=2)),
        locks=(LockSpec("stats_lock", guards=("stats",)),),
        pools=(
            PoolSpec("front", threads=2, requests=32, chunk=8,
                     body=(StepSpec("config_read", "table", 2),
                           StepSpec("tls")),
                     flush=(StepSpec("locked_update", "stats_lock"),)),
            PoolSpec("back", threads=2, requests=32, chunk=8,
                     body=(StepSpec("compute", count=2),)),
        ),
        races=(RaceSpec("init_flag", pools=("front", "back"),
                        rate="cold", placement="start"),),
    )
    return dataclasses.replace(base, **overrides) if overrides else base


class TestSpecValidation:
    def test_minimal_spec_validates(self):
        _minimal_spec().validate()

    def test_unknown_step_op_rejected(self):
        with pytest.raises(ScenarioError, match="unknown step op"):
            StepSpec("teleport").validate()

    def test_duplicate_pool_name_rejected(self):
        spec = _minimal_spec()
        twin = dataclasses.replace(spec,
                                   pools=spec.pools + (spec.pools[0],))
        with pytest.raises(ScenarioError, match="duplicate pool"):
            twin.validate()

    def test_lock_must_guard_something(self):
        with pytest.raises(ScenarioError, match="guards no region"):
            LockSpec("lonely").validate()

    def test_lock_cannot_guard_queue_region(self):
        spec = _minimal_spec(
            regions=(RegionSpec("table", elements=4),
                     RegionSpec("stats", kind="queue")))
        with pytest.raises(ScenarioError, match="non-data region"):
            spec.validate()

    def test_cold_race_needs_two_racers(self):
        with pytest.raises(ScenarioError, match=">= 2"):
            RaceSpec("solo", pools=("front",), racers=1).validate()

    def test_race_needs_enough_threads(self):
        spec = _minimal_spec(
            races=(RaceSpec("crowded", pools=("front",), racers=5),))
        with pytest.raises(ScenarioError, match="only 2 available"):
            spec.validate()

    def test_race_pool_must_exist(self):
        spec = _minimal_spec(
            races=(RaceSpec("ghost", pools=("nowhere",)),))
        with pytest.raises(ScenarioError, match="unknown pool"):
            spec.validate()

    def test_queue_selector_requires_matching_instances(self):
        spec = _minimal_spec(
            regions=(RegionSpec("table", elements=4),
                     RegionSpec("stats", elements=2),
                     RegionSpec("q", kind="queue", instances=3)),
            pools=(
                PoolSpec("front", threads=2, requests=32, chunk=8,
                         body=(StepSpec("queue_push", "q", instance="own"),
                               StepSpec("queue_pop", "q", instance="next"))),
                PoolSpec("back", threads=2, requests=32, chunk=8,
                         body=(StepSpec("compute"),)),
            ))
        with pytest.raises(ScenarioError, match="instances =="):
            spec.validate()

    def test_step_region_kind_checked(self):
        spec = _minimal_spec(
            regions=(RegionSpec("table", kind="queue"),
                     RegionSpec("stats", elements=2)))
        with pytest.raises(ScenarioError, match="must be a data region"):
            spec.validate()


class TestDictRoundTrip:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_catalog_round_trips(self, name):
        spec = scenario(name)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_step_list_shorthand(self):
        step = StepSpec.from_dict(["config_read", "table", 6])
        assert step == StepSpec("config_read", "table", 6)

    def test_from_dict_validates(self):
        data = _minimal_spec().to_dict()
        data["pools"][0]["chunk"] = 0
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict(data)


class TestDerive:
    def test_named_merge_touches_one_pool(self):
        base = scenario("kv-store")
        derived = base.derive({"pools": {"readers": {"threads": 12}}})
        assert derived.pool("readers").threads == 12
        assert derived.pool("writers") == base.pool("writers")
        assert derived.pool("readers").body == base.pool("readers").body

    def test_rename_gives_new_identity(self):
        derived = scenario("kv-store").derive({}, rename="kv-store-wide")
        assert derived.name == "kv-store-wide"

    def test_traffic_merges_key_by_key(self):
        base = scenario("kv-store")
        derived = base.derive({"traffic": {"burst": 4}})
        assert derived.traffic.burst == 4
        assert derived.traffic.mix == base.traffic.mix

    def test_derive_validates_result(self):
        with pytest.raises(ScenarioError):
            scenario("kv-store").derive(
                {"pools": {"readers": {"threads": 0}}})

    def test_base_spec_unchanged(self):
        base = scenario("work-steal")
        base.derive({"pools": {"workers": {"threads": 8}},
                     "regions": {"deques": {"instances": 8}}})
        assert base.pool("workers").threads == 4


class TestCompileChecks:
    def test_queue_imbalance_rejected(self):
        spec = _minimal_spec(
            regions=(RegionSpec("table", elements=4),
                     RegionSpec("stats", elements=2),
                     RegionSpec("q", kind="queue")),
            pools=(
                PoolSpec("front", threads=2, requests=32, chunk=8,
                         body=(StepSpec("queue_push", "q"),)),
                PoolSpec("back", threads=2, requests=32, chunk=8,
                         body=(StepSpec("compute"),)),
            ))
        with pytest.raises(ScenarioError, match="pushes vs"):
            compile_scenario(spec, scale=0.25)

    def test_region_role_mixing_rejected(self):
        # "table" is config-read by front; guarding it too would let a
        # locked writer race every unsynchronized read.
        spec = _minimal_spec(
            locks=(LockSpec("stats_lock", guards=("stats", "table")),))
        with pytest.raises(ScenarioError, match="exactly one access"):
            compile_scenario(spec, scale=0.25)

    def test_two_locks_one_region_rejected(self):
        spec = _minimal_spec(
            locks=(LockSpec("stats_lock", guards=("stats",)),
                   LockSpec("other_lock", guards=("stats",))))
        with pytest.raises(ScenarioError, match="two locks"):
            compile_scenario(spec, scale=0.25)

    def test_read_only_race_rejected(self):
        spec = _minimal_spec(
            races=(RaceSpec("reader", pools=("front", "back"),
                            write=False),))
        with pytest.raises(ScenarioError, match="write access"):
            compile_scenario(spec, scale=0.25)

    def test_designated_racers_are_latest_spawns(self):
        spec = scenario("kv-store")
        race = next(r for r in spec.races if r.name == "shard_init")
        racers = designated_racers(spec, race)
        # Two racers drawn round-robin from the back of each listed pool.
        assert racers == {("readers", 5), ("writers", 1)}
        assert all(r.racers == len(designated_racers(spec, r))
                   for r in spec.races if r.rate == "cold")


class TestRegistryIntegration:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_scenarios_are_workloads(self, name):
        assert name in workloads.names()
        spec = workloads.get(name)
        assert "scenario" in spec.tags
        assert not spec.in_race_eval and not spec.in_overhead_eval

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_registry_build_matches_direct_compile(self, name):
        via_registry = workloads.build(name, seed=1, scale=0.05)
        direct = compile_scenario(scenario(name), seed=1, scale=0.05)
        assert via_registry.num_functions == direct.num_functions
        assert ({k for p in via_registry.planted_races for k in p.keys}
                == {k for p in direct.planted_races for k in p.keys})

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario("nope")

    def test_catalog_presentation_order(self):
        assert SCENARIOS == ["kv-store", "web-server", "pipeline",
                             "work-steal"]


@pytest.mark.parametrize("name", SCENARIOS)
class TestDeterminism:
    def test_same_spec_and_seed_byte_identical_log(self, name):
        """Two independent compiles + runs of the same (spec, seed) must
        serialize to the same bytes — the reproducibility contract the
        loadgen templates and the validation engine rely on."""
        logs = []
        for _ in range(2):
            program = compile_scenario(scenario(name), seed=3, scale=0.02)
            result = LiteRace(sampler="Full", seed=3).run(program)
            logs.append(encode_log(result.log))
        assert logs[0] == logs[1]

    def test_seed_changes_interleaving_not_ground_truth(self, name):
        keys = []
        for seed in (1, 2):
            program = compile_scenario(scenario(name), seed=seed,
                                       scale=0.02)
            keys.append({k for p in program.planted_races for k in p.keys})
        assert keys[0] == keys[1]


@pytest.mark.parametrize("name", SCENARIOS)
class TestGroundTruth:
    def test_full_logging_finds_exactly_the_planted_races(self, name):
        program = compile_scenario(scenario(name), seed=2, scale=0.05)
        result = LiteRace(sampler="Full", seed=2).run(program)
        planted = {k for p in program.planted_races for k in p.keys}
        assert result.report.static_races == planted

    def test_flat_detector_replays_the_same_verdict(self, name):
        """The batched FlatDetector (the server-side hot path) must agree
        with the online verdict on the same event stream."""
        program = compile_scenario(scenario(name), seed=2, scale=0.02)
        result = LiteRace(sampler="Full", seed=2).run(program)
        replay = FlatDetector("hb").feed_all(result.log.events)
        planted = {k for p in program.planted_races for k in p.keys}
        assert replay.report.static_races == planted

    def test_archetype_coverage(self, name):
        """Every scenario plants all four §3.4 archetypes."""
        spec = scenario(name)
        assert any(r.rate == "cold" and r.placement == "start" and r.warmup
                   for r in spec.races)
        assert any(r.rate == "cold" and r.placement == "end"
                   for r in spec.races)
        assert any(r.rate == "frequent" for r in spec.races)
        assert any(r.hot for r in spec.races)

    def test_sync_traffic_present(self, name):
        """Scenarios are service-shaped: the compiled run must contain
        real synchronization, not just straight-line memory traffic."""
        program = compile_scenario(scenario(name), seed=1, scale=0.02)
        result = LiteRace(sampler="Full", seed=1).run(program)
        assert any(isinstance(e, SyncEvent) for e in result.log.events)


class TestTraffic:
    def test_trace_is_deterministic(self):
        spec = scenario("kv-store")
        assert generate_trace(spec, 64, seed=5) == \
            generate_trace(spec, 64, seed=5)

    def test_seed_changes_trace(self):
        spec = scenario("kv-store")
        assert generate_trace(spec, 64, seed=1) != \
            generate_trace(spec, 64, seed=2)

    def test_items_respect_profile(self):
        spec = scenario("web-server")
        ops = {op for op, _ in spec.traffic.mix}
        trace = generate_trace(spec, 200, seed=1)
        assert len(trace) == 200
        for item in trace:
            assert item.op in ops
            assert 0 <= item.key < spec.traffic.key_space

    def test_bursts_group_by_session(self):
        spec = scenario("kv-store")
        trace = generate_trace(spec, 20, seed=1)  # burst=8 -> 8+8+4
        groups = list(bursts(trace))
        assert [len(g) for g in groups] == [8, 8, 4]
        assert [g[0].burst for g in groups] == [0, 1, 2]

    def test_scale_for_requests(self):
        spec = scenario("kv-store")
        assert spec.scale_for_requests(spec.traffic.requests) == 1.0
        assert spec.scale_for_requests(spec.traffic.requests // 2) == 0.5
        with pytest.raises(ScenarioError):
            spec.scale_for_requests(0)
