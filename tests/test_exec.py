"""Execution engine: fingerprints, result cache, parallel determinism."""

import json
import logging

import pytest

from repro.core.game import GroupGame, bisect_nash
from repro.exec import (
    CACHE_SCHEMA,
    Engine,
    ResultCache,
    ScenarioPoint,
    default_cache_root,
    fingerprint_payload,
)
from repro.exec import engine as engine_mod
from repro.exec import fingerprint as fingerprint_mod
from repro.experiments.runner import (
    ScenarioResult,
    distribution_payoff_fn,
    group_payoff_fn,
    run_mix,
    seed_points,
)
from repro.obs import Telemetry
from repro.util.config import LinkConfig
from tests.identity import pinned_fingerprint


def link(bdp=3, mbps=20, rtt=20):
    return LinkConfig.from_mbps_ms(mbps, rtt, bdp)


def points(n=3, duration=8.0, **kwargs):
    return [
        ScenarioPoint(
            link=link(bdp=1 + i),
            mix=(("cubic", 2), ("bbr", 2)),
            duration=duration,
            **kwargs,
        )
        for i in range(n)
    ]


# -- fingerprints ------------------------------------------------------------


def test_fingerprint_is_stable_across_instances():
    a = ScenarioPoint(link=link(), mix=(("cubic", 2), ("bbr", 2)))
    b = ScenarioPoint(link=link(), mix=(("cubic", 2), ("bbr", 2)))
    assert a == b
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_canonicalizes_spelling():
    base = ScenarioPoint(
        link=link(), mix=(("cubic", 1), ("bbr", 1)), duration=30.0
    )
    spelled = ScenarioPoint(
        link=link(),
        mix=(("CUBIC", 1, None), ("reno", 0), ("BBR", 1)),
        duration=30.0,
        warmup=5.0,  # == duration / 6, the resolved default
        backend="fluid-vec",  # Former spelling of the batched fluid path.
    )
    assert spelled == base
    assert spelled.backend == "fluid"
    assert spelled.fingerprint() == base.fingerprint()
    # Pinned at the commit before "fluid-vec" stopped being a backend,
    # with the trials key points carried until they became one seed:
    # the rest of a declared-fluid point's descriptor has not moved.
    assert pinned_fingerprint(base) == (
        "2e3545b39be2261588ec123fe57213751a0c943836953a21ae5a93f2490cd01a"
    )


def test_fingerprint_rtts_order_insensitive():
    # An entry's RTT travels with the entry: however it is spelled, the
    # point is the same; attached to the other entry, it is another.
    a = ScenarioPoint(
        link=link(), mix=(("cubic", 1, 0.01), ("bbr", 1, 0.05))
    )
    b = ScenarioPoint(
        link=link(),
        mix=[("CUBIC", 1, 0.01), ("reno", 0, 0.02), ("bbr", 1, 5e-2)],
    )
    swapped = ScenarioPoint(
        link=link(), mix=(("cubic", 1, 0.05), ("bbr", 1, 0.01))
    )
    assert a == b and a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != swapped.fingerprint()


def test_entry_without_rtt_equals_entry_with_none():
    a = ScenarioPoint(link=link(), mix=(("cubic", 2), ("bbr", 1)))
    b = ScenarioPoint(
        link=link(), mix=(("cubic", 2, None), ("bbr", 1, None))
    )
    assert a == b and a.mix == (("cubic", 2), ("bbr", 1))
    assert a.fingerprint() == b.fingerprint()
    with pytest.raises(ValueError, match="RTT must be positive"):
        ScenarioPoint(link=link(), mix=(("cubic", 1, 0.0),))


@pytest.mark.parametrize(
    "change",
    [
        {"seed": 1},
        {"mix": (("cubic", 2), ("bbr", 2))},  # A count.
        {"duration": 31.0},
        {"warmup": 2.5},
        {"backend": "packet"},
        {"loss_mode": "sync"},
        {"mix": (("cubic", 1), ("bbr", 1))},
        {"mix": (("bbr", 1), ("cubic", 2))},  # Order is identity.
        {"link": link(bdp=5)},
        {"mix": (("cubic", 2), ("bbr", 1, 0.08))},  # Entry RTT.
    ],
)
def test_fingerprint_changes_with_inputs(change):
    base = dict(
        link=link(), mix=(("cubic", 2), ("bbr", 1)), duration=30.0
    )
    a = ScenarioPoint(**base)
    b = ScenarioPoint(**{**base, **change})
    assert a.fingerprint() != b.fingerprint()


def test_fingerprint_changes_with_package_version(monkeypatch):
    point = ScenarioPoint(link=link(), mix=(("cubic", 1),))
    before = point.fingerprint()
    monkeypatch.setattr(fingerprint_mod, "REPRO_VERSION", "999.0.0")
    assert point.fingerprint() != before


def test_fingerprint_payload_namespaced_by_kind():
    params = {"x": 1}
    assert fingerprint_payload("a", params) != fingerprint_payload(
        "b", params
    )


def test_scenario_point_validation():
    with pytest.raises(ValueError):
        ScenarioPoint(link=link(), mix=(("cubic", 0),))
    with pytest.raises(ValueError):
        ScenarioPoint(link=link(), mix=(("cubic", 1),), backend="ns3")
    with pytest.raises(TypeError, match="trials"):
        # A point is one seed; repetition is seed_points'.
        ScenarioPoint(link=link(), mix=(("cubic", 1),), trials=2)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        seed_points([ScenarioPoint(link=link(), mix=(("cubic", 1),))], 0)
    with pytest.raises(ValueError):
        ScenarioPoint(link=link(), mix=(("cubic", 1),), duration=0)


@pytest.mark.parametrize("backend", ["fluid", "packet"])
def test_scenario_point_rejects_unknown_cca(backend):
    # Before the check the name travelled to the substrate and came
    # back as a KeyError traceback; zero-count entries are named too.
    for bad in (("nosuch", 1), ("Nope", 0)):
        with pytest.raises(ValueError) as raised:
            ScenarioPoint(
                link=link(), mix=(("cubic", 1), bad), backend=backend
            )
        message = str(raised.value)
        assert f"mix entry {bad}: unknown {backend} congestion" in message
        assert "'bbr', 'bbr2', 'copa', 'cubic'" in message


def test_scenario_point_needs_an_adapter_for_its_backend(monkeypatch):
    from repro.cc.laws.registry import ALGORITHMS, AlgorithmSpec

    spec = AlgorithmSpec(
        name="fluidonly",
        summary="",
        loss_based=True,
        laws="repro.cc.laws.reno",
        packet=None,
        fluid="repro.fluidsim.flows:FluidReno",
    )
    monkeypatch.setitem(ALGORITHMS, "fluidonly", spec)
    mix = (("FluidOnly", 1), ("cubic", 1))
    assert ScenarioPoint(link=link(), mix=mix).mix[0] == ("fluidonly", 1)
    with pytest.raises(ValueError, match="unknown packet congestion") as e:
        ScenarioPoint(link=link(), mix=mix, backend="packet")
    assert "fluidonly" not in str(e.value).split("available:")[1]


@pytest.mark.parametrize("backend", ["fluid", "packet"])
def test_scenario_point_rejects_unknown_loss_mode(backend):
    # The packet substrate never reads loss_mode, so before the check a
    # bogus value was simulated and cached under a meaningless identity.
    with pytest.raises(ValueError, match="loss_mode must be one of"):
        ScenarioPoint(
            link=link(),
            mix=(("cubic", 1),),
            backend=backend,
            loss_mode="bogus",
        )


# -- cache -------------------------------------------------------------------


def test_cache_roundtrip_and_byte_identical_writes(tmp_path):
    cache = ResultCache(tmp_path)
    payload = {"per_flow": {"bbr": 1.25e6}, "drop_rate": 0.0}
    fp = "ab" + "0" * 62
    path = cache.put(fp, payload)
    first = path.read_bytes()
    assert cache.get(fp) == payload
    cache.put(fp, payload)
    assert path.read_bytes() == first  # Canonical encoding.
    assert fp in cache
    assert len(cache) == 1


def test_cache_miss_on_absent_entry(tmp_path):
    assert ResultCache(tmp_path).get("cd" + "1" * 62) is None


def test_cache_corrupt_entry_is_logged_miss(tmp_path, caplog):
    cache = ResultCache(tmp_path)
    fp = "ef" + "2" * 62
    path = cache.path_for(fp)
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    with caplog.at_level(logging.WARNING, logger="repro.exec.cache"):
        assert cache.get(fp) is None
    assert "corrupt" in caplog.text


def test_cache_rejects_schema_and_key_mismatch(tmp_path):
    cache = ResultCache(tmp_path)
    fp = "0a" + "3" * 62
    cache.put(fp, {"x": 1})
    entry = json.loads(cache.path_for(fp).read_text())
    entry["schema"] = CACHE_SCHEMA + 1
    cache.path_for(fp).write_text(json.dumps(entry))
    assert cache.get(fp) is None  # Stale schema self-invalidates.

    other = "0a" + "4" * 62
    cache.put(other, {"x": 2})
    moved = cache.path_for(fp)
    moved.write_text(cache.path_for(other).read_text())
    assert cache.get(fp) is None  # Renamed entry rejected.


def test_default_cache_root_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_root() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_root() == tmp_path / "xdg" / "repro-bbr"


# -- engine ------------------------------------------------------------------


def test_cached_rerun_equals_uncached_run(tmp_path):
    pts = points(2)
    uncached = Engine().run_points(pts)
    cold = Engine(cache=ResultCache(tmp_path)).run_points(pts)
    warm_engine = Engine(cache=ResultCache(tmp_path))
    warm = warm_engine.run_points(pts)
    assert cold == uncached
    assert warm == uncached
    assert warm_engine.stats["simulated"] == 0
    assert warm_engine.stats["cache_hits"] == len(pts)


def test_cached_payload_is_byte_identical_for_same_fingerprint(tmp_path):
    pts = points(1)
    fp = pts[0].fingerprint()
    cache_a, cache_b = ResultCache(tmp_path / "a"), ResultCache(tmp_path / "b")
    Engine(cache=cache_a).run_points(pts)
    Engine(cache=cache_b).run_points(pts)
    assert (
        cache_a.path_for(fp).read_bytes() == cache_b.path_for(fp).read_bytes()
    )


def test_parallel_jobs_match_sequential_exactly(tmp_path):
    pts = points(4)
    sequential = Engine(jobs=1).run_points(pts)
    parallel = Engine(jobs=4).run_points(pts)
    assert parallel == sequential
    warm = Engine(jobs=4, cache=ResultCache(tmp_path))
    warm.run_points(pts)
    assert warm.run_points(pts) == sequential


def test_engine_results_keep_submission_order():
    pts = points(3)
    results = Engine(jobs=3).run_points(list(reversed(pts)))
    forward = Engine(jobs=1).run_points(pts)
    assert results == list(reversed(forward))


def test_duplicate_points_simulated_once():
    pts = points(1) * 3
    engine = Engine(jobs=2)
    results = engine.run_points(pts)
    assert engine.stats["simulated"] == 1
    assert results[0] == results[1] == results[2]


def test_corrupt_cache_entry_counts_error_and_reruns(tmp_path):
    pts = points(1)
    cache = ResultCache(tmp_path)
    fresh = Engine(cache=cache).run_points(pts)[0]
    path = cache.path_for(pts[0].fingerprint())
    path.write_text("garbage")
    engine = Engine(cache=ResultCache(tmp_path))
    again = engine.run_points(pts)[0]
    assert again == fresh  # Re-simulated, not crashed.
    assert engine.stats["cache_errors"] == 1
    assert engine.stats["simulated"] == 1
    # The re-run repaired the entry.
    assert Engine(cache=ResultCache(tmp_path)).run_points(pts)[0] == fresh


def test_engine_records_obs_counters(tmp_path):
    """The engine counts into ``stats``, its one record."""
    engine = Engine(cache=ResultCache(tmp_path))
    engine.run_points(points(2))
    engine.run_points(points(2))
    stats = engine.stats
    assert stats["submitted"] == stats["done"] == 4
    assert stats["simulated"] == 2
    assert stats["cache_hits"] == 2
    assert stats["cache_misses"] == 2
    assert len(ResultCache(tmp_path)) == 2


def test_engine_progress_callback_is_cumulative():
    seen = []
    engine = Engine(progress=lambda d, s, h: seen.append((d, s, h)))
    engine.run_points(points(2))
    assert seen[-1] == (2, 2, 0)
    engine.run_points(points(2))
    assert seen[-1] == (4, 4, 0)


def test_engine_run_mix_matches_runner_run_mix():
    [result] = Engine().run_points(
        [
            ScenarioPoint(
                link=link(),
                mix=(("cubic", 2), ("bbr", 2)),
                duration=10,
                seed=3,
            )
        ]
    )
    direct = run_mix(
        link(), [("cubic", 2), ("bbr", 2)], duration=10, seed=3
    )
    assert result == direct


def test_engine_jobs_validation():
    with pytest.raises(ValueError):
        Engine(jobs=0)


def test_unbindable_engine_arguments_are_a_plain_type_error(monkeypatch):
    """Arguments that do not bind fail before ``__init__`` runs, so the
    half-built object has no pool; finalizing it must be silent rather
    than an unraisable error from ``__del__``."""
    import gc
    import sys

    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    for kwargs in ({"bogus": 1}, {"obs": None}, {"tracer": None}):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            Engine(**kwargs)
        gc.collect()
    assert [str(hook.exc_value) for hook in unraisable] == []


def test_default_engine_install_and_resolve():
    assert engine_mod.get_default() is None
    custom = Engine()
    with engine_mod.use(custom):
        assert engine_mod.resolve(None) is custom
    assert engine_mod.get_default() is None
    fallback = engine_mod.resolve(None)
    assert fallback.jobs == 1 and fallback.cache is None


# -- scenario-result serialization -------------------------------------------


def test_scenario_result_dict_roundtrip_exact():
    result = run_mix(link(), [("cubic", 2), ("bbr", 2)], duration=10)
    data = json.loads(json.dumps(result.to_dict()))
    assert ScenarioResult.from_dict(data) == result


# -- NE machinery through the cache ------------------------------------------


def test_bisect_nash_reuses_cached_points_across_sweeps(tmp_path):
    cache = ResultCache(tmp_path)
    cold = Engine(cache=cache)
    payoff = distribution_payoff_fn(
        link(), n_flows=5, duration=8, engine=cold
    )
    equilibria, _ = bisect_nash(GroupGame([5], payoff))
    assert cold.stats["simulated"] > 0

    warm = Engine(cache=ResultCache(tmp_path))
    payoff2 = distribution_payoff_fn(
        link(), n_flows=5, duration=8, engine=warm
    )
    equilibria2, _ = bisect_nash(GroupGame([5], payoff2))
    assert equilibria2 == equilibria
    assert warm.stats["simulated"] == 0
    assert warm.stats["cache_hits"] == warm.stats["submitted"]


def test_group_payoff_fn_cached(tmp_path):
    kwargs = dict(
        group_rtts=[0.010, 0.030], group_sizes=[2, 2], duration=8
    )
    cold = Engine(cache=ResultCache(tmp_path))
    first = group_payoff_fn(link(), engine=cold, **kwargs)((1, 2))
    warm = Engine(cache=ResultCache(tmp_path))
    second = group_payoff_fn(link(), engine=warm, **kwargs)((1, 2))
    assert second == first
    assert warm.stats["simulated"] == 0
    assert warm.stats["cache_hits"] == 1
    # Validation still happens before the cache is consulted.
    payoff = group_payoff_fn(link(), engine=warm, **kwargs)
    with pytest.raises(ValueError, match="outside the game"):
        GroupGame([2, 2], payoff).payoffs((1, 2), (3, 0))
    assert warm.stats["submitted"] == 1


# -- worker-death hardening --------------------------------------------------


def _die_in_worker(points):
    """Replacement worker entry that kills the process abruptly."""
    import os

    os._exit(13)


def test_broken_pool_retries_lost_points_inline(monkeypatch):
    """A dead worker poisons the pool; the batch must still complete."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatched worker entry needs fork start method")

    batch = points(3, duration=5.0)
    expected = Engine().run_points(batch)

    engine = Engine(jobs=2)
    monkeypatch.setattr(engine_mod, "_worker_unit", _die_in_worker)
    results = engine.run_points(batch)

    assert engine.worker_failures == 1
    assert engine.stats["worker_failures"] == 1
    # Every point was recovered inline with identical numbers.
    assert [r.to_dict() for r in results] == [
        r.to_dict() for r in expected
    ]


def test_broken_pool_results_cached_after_retry(tmp_path, monkeypatch):
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatched worker entry needs fork start method")

    batch = points(2, duration=5.0)
    engine = Engine(jobs=2, cache=ResultCache(tmp_path))
    monkeypatch.setattr(engine_mod, "_worker_unit", _die_in_worker)
    engine.run_points(batch)
    assert engine.worker_failures == 1

    warm = Engine(cache=ResultCache(tmp_path))
    warm.run_points(batch)
    assert warm.stats["simulated"] == 0
    assert warm.stats["cache_hits"] == 2


def test_worker_killed_mid_chunk_recovers_every_point(tmp_path, monkeypatch):
    """Every unit here holds several points, so the dead worker takes
    whole chunks with it; the retry must still resolve each index once,
    with clean-run numbers, and store what it recovered."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatched worker entry needs fork start method")

    batch = points(4, duration=5.0)
    expected = Engine().run_points(batch)

    seen = []
    engine = Engine(
        jobs=2,
        cache=ResultCache(tmp_path),
        progress=lambda d, s, h: seen.append(d),
    )
    units = engine._dispatch_units({p.fingerprint(): p for p in batch})
    assert [len(unit) for unit in units] == [2, 2]
    monkeypatch.setattr(engine_mod, "_worker_unit", _die_in_worker)
    results = engine.run_points(batch)

    assert [r.to_dict() for r in results] == [
        r.to_dict() for r in expected
    ]
    assert engine.worker_failures == 1
    assert seen == [1, 2, 3, 4]
    warm = Engine(cache=ResultCache(tmp_path))
    warm.run_points(batch)
    assert warm.stats["simulated"] == 0


# -- warmup validation (PR 5 satellite) -------------------------------------


@pytest.mark.parametrize("warmup", [-0.5, 8.0, 9.0])
def test_scenario_point_rejects_out_of_range_warmup(warmup):
    with pytest.raises(ValueError, match="warmup must lie in"):
        ScenarioPoint(
            link=link(),
            mix=(("cubic", 1),),
            duration=8.0,
            warmup=warmup,
        )


def test_scenario_point_accepts_boundary_warmups():
    zero = ScenarioPoint(
        link=link(), mix=(("cubic", 1),), duration=8.0, warmup=0.0
    )
    assert zero.warmup == 0.0
    near = ScenarioPoint(
        link=link(), mix=(("cubic", 1),), duration=8.0, warmup=7.999
    )
    assert near.warmup == pytest.approx(7.999)


def test_run_mix_rejects_out_of_range_warmup():
    with pytest.raises(ValueError, match="warmup must lie in"):
        run_mix(link(), [("cubic", 1)], duration=8.0, warmup=8.0)
    with pytest.raises(ValueError, match="warmup must lie in"):
        run_mix(link(), [("cubic", 1)], duration=8.0, warmup=-1.0)


# -- cache durability (PR 5 satellite) --------------------------------------


def test_cache_put_fsyncs_before_rename(tmp_path, monkeypatch):
    import os as os_mod

    calls = []
    real_fsync, real_replace = os_mod.fsync, os_mod.replace

    def spy_fsync(fd):
        calls.append("fsync")
        return real_fsync(fd)

    def spy_replace(src, dst):
        calls.append("replace")
        return real_replace(src, dst)

    monkeypatch.setattr("repro.exec.cache.os.fsync", spy_fsync)
    monkeypatch.setattr("repro.exec.cache.os.replace", spy_replace)
    cache = ResultCache(tmp_path)
    point = points(1)[0]
    cache.put(point.fingerprint(), {"throughput": 1.0})
    # Contents must be durable before the entry becomes visible; the
    # trailing fsync is the best-effort shard-directory sync.
    assert calls[0] == "fsync"
    assert "replace" in calls
    assert calls.index("fsync") < calls.index("replace")


def test_cache_crash_before_rename_leaves_no_entry(tmp_path, monkeypatch):
    def exploding_replace(src, dst):
        raise OSError("simulated crash at the rename boundary")

    monkeypatch.setattr("repro.exec.cache.os.replace", exploding_replace)
    cache = ResultCache(tmp_path)
    fingerprint = points(1)[0].fingerprint()
    with pytest.raises(OSError):
        cache.put(fingerprint, {"throughput": 1.0})
    # The partially-written temp was cleaned up and the final key is
    # absent: readers can never observe a truncated entry.
    assert cache.get(fingerprint) is None
    assert fingerprint not in cache
    shard = tmp_path / fingerprint[:2]
    assert not any(shard.glob("*.tmp"))


def test_cache_dir_fsync_failure_is_swallowed(tmp_path, monkeypatch):
    import os as os_mod

    from repro.exec import cache as cache_mod

    real_open = os_mod.open

    def refusing_open(path, flags, *args, **kwargs):
        # Refuse directory opens only (some platforms genuinely do);
        # tempfile.mkstemp file opens must keep working.
        if os_mod.path.isdir(path):
            raise OSError("directories not openable on this platform")
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr("repro.exec.cache.os.open", refusing_open)
    cache_mod._fsync_dir(tmp_path)  # Must not raise.
    cache = ResultCache(tmp_path)
    fingerprint = points(1)[0].fingerprint()
    cache.put(fingerprint, {"throughput": 2.0})
    assert cache.get(fingerprint) == {"throughput": 2.0}


# -- progress accounting (exactly-once done/hits) ----------------------------


def test_progress_done_advances_once_per_index(tmp_path):
    """``done``/``hits`` advance exactly once per submitted index: cache
    hits at scan time, executed points (and their duplicates) when the
    result lands — never at submit time."""
    pts = points(3, duration=5.0)
    Engine(cache=ResultCache(tmp_path)).run_points(pts[:2])  # warm 2

    seen = []
    engine = Engine(
        jobs=2,
        cache=ResultCache(tmp_path),
        progress=lambda d, s, h: seen.append((d, s, h)),
    )
    # 4 submissions: two warm hits, one cold, one duplicate of the cold.
    engine.run_points(pts + [pts[2]])
    assert engine.stats["submitted"] == 4
    assert engine.done == 4
    assert engine.hits == 2
    # done is strictly +1 per resolution and never exceeds submitted.
    assert [d for d, _s, _h in seen] == [1, 2, 3, 4]
    assert all(d <= s and h <= d for d, s, h in seen)
    # The two hits are counted during the scan, before any execution.
    assert [h for _d, _s, h in seen] == [1, 2, 2, 2]


def test_progress_accounting_with_broken_pool_retry(monkeypatch):
    """Inline retries after a dead worker advance ``done`` exactly once
    per lost point — the pre-fix code double-counted or skipped."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatched worker entry needs fork start method")

    seen = []
    engine = Engine(
        jobs=2, progress=lambda d, s, h: seen.append((d, s, h))
    )
    monkeypatch.setattr(engine_mod, "_worker_unit", _die_in_worker)
    engine.run_points(points(3, duration=5.0))
    assert engine.worker_failures == 1
    assert engine.done == 3
    assert engine.hits == 0
    assert [d for d, _s, _h in seen] == [1, 2, 3]


def test_persistent_pool_reused_across_batches():
    """The worker pool survives between batches (single points included)
    and is shut down by close()."""
    engine = Engine(jobs=2)
    with engine:
        engine.run_points(points(1, duration=5.0))
        first_pool = engine._executor
        assert first_pool is not None  # single point still fans out
        engine.run_points(points(2, duration=5.0))
        assert engine._executor is first_pool
    assert engine._executor is None


# -- chunked dispatch --------------------------------------------------------


def vec_points(n=5, duration=6.0):
    """Cheap fluid points, together wide enough (5 x 16 = 80 rows) that
    the engine pools them onto the vectorized substrate."""
    return [
        ScenarioPoint(
            link=link(bdp=1 + i),
            mix=(("cubic", 8), ("bbr", 8)),
            duration=duration,
        )
        for i in range(n)
    ]


def solo_runs(pts, cache=None):
    """Each point submitted on its own: too narrow to vectorize, so this
    is the scalar loop the pooled runs must reproduce bit for bit."""
    engine = Engine(jobs=1, cache=cache)
    return [engine.run_points([p])[0] for p in pts]


def test_dispatch_units_group_cheap_points():
    engine = Engine(jobs=2)
    pending = {p.fingerprint(): p for p in points(5)}
    units = engine._dispatch_units(pending)
    assert sorted(len(unit) for unit in units) == [2, 3]
    assert {fp for unit in units for fp in unit} == set(pending)


def test_dispatch_units_same_rule_inline():
    """``jobs == 1`` groups through the same rule as the pool: one
    "worker", so 40 cheap points (160 rows) are one unit; two workers
    still get a unit each."""
    pending = {p.fingerprint(): p for p in points(40)}
    units = Engine(jobs=1)._dispatch_units(pending)
    assert [len(unit) for unit in units] == [40]
    units = Engine(jobs=2)._dispatch_units(pending)
    assert [len(unit) for unit in units] == [20, 20]


def wide_point(rows, seed=0):
    """One cheap fluid point of ``rows`` flows (never simulated here)."""
    return ScenarioPoint(
        link=link(), mix=(("cubic", rows),), duration=2.0, seed=seed
    )


def test_dispatch_units_split_exactly_at_the_row_cap():
    """The cap counts flow rows, the unit the vectorized batch
    allocates by: a unit may reach ``UNIT_MAX_ROWS`` and not exceed it,
    whatever the number of points that takes."""
    cap = engine_mod.UNIT_MAX_ROWS
    engine = Engine(jobs=1)

    def unit_rows(pts):
        pending = {p.fingerprint(): p for p in pts}
        return [
            [pending[fp].rows for fp in unit]
            for unit in engine._dispatch_units(pending)
        ]

    eighth = cap // 8
    even = [wide_point(eighth, seed=i) for i in range(17)]
    assert unit_rows(even) == [[eighth] * 8, [eighth] * 8, [eighth]]
    # Reaching the cap exactly is allowed; one row more starts a unit.
    assert unit_rows([wide_point(cap - 2), wide_point(2, seed=1)]) == [
        [cap - 2, 2]
    ]
    assert unit_rows([wide_point(cap - 2), wide_point(3, seed=1)]) == [
        [cap - 2],
        [3],
    ]
    # A point wider than the cap cannot be cut.
    wider = ScenarioPoint(
        link=link(), mix=(("cubic", 5 * cap // 4),), duration=0.5
    )
    assert wider.rows == 5 * cap // 4
    assert unit_rows([wide_point(1), wider, wide_point(1, seed=2)]) == [
        [1],
        [wider.rows],
        [1],
    ]


def test_dispatch_units_keep_expensive_points_solo():
    expensive = ScenarioPoint(
        link=link(),
        mix=(("cubic", 125), ("bbr", 125)),
        duration=120.0,
    )
    pending = {expensive.fingerprint(): expensive}
    for point in points(4):
        pending[point.fingerprint()] = point
    units = Engine(jobs=2)._dispatch_units(pending)
    assert [expensive.fingerprint()] in units
    assert sorted(len(unit) for unit in units) == [1, 2, 2]


def test_chunked_inline_vec_pooling_matches_unchunked(tmp_path):
    cache = ResultCache(tmp_path)
    baseline = solo_runs(vec_points(), cache=cache)
    engine = Engine(jobs=1)
    assert engine.run_points(vec_points()) == baseline
    assert engine.done == engine.submitted == 5
    assert engine.simulated == 5
    # Scalar and vectorized runs share one cache entry per point.
    warm = Engine(jobs=1, cache=cache)
    assert warm.run_points(vec_points()) == baseline
    assert warm.simulated == 0
    assert warm.hits == 5


def test_chunked_parallel_matches_sequential():
    baseline = solo_runs(vec_points())
    with Engine(jobs=2) as engine:
        assert engine.run_points(vec_points()) == baseline


@pytest.fixture
def substrate_calls(monkeypatch):
    """Calls into each fluid implementation from the runner, counted
    with no checker live (also when the suite runs under
    ``REPRO_CHECK=1``) so only the rows decide."""
    from repro.check import use as use_check
    from repro.fluidsim import core, vec

    calls = {"scalar": 0, "vec": 0}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # The runner imports each substrate where it dispatches to it.
    monkeypatch.setattr(core, "run_fluid", spy("scalar", core.run_fluid))
    monkeypatch.setattr(
        vec,
        "run_fluid_vec_batch",
        spy("vec", vec.run_fluid_vec_batch),
    )
    with use_check(None):
        yield calls


def row_points(rows, flows=1):
    """``rows / flows`` cheap fluid points of ``flows`` flows each."""
    return [
        ScenarioPoint(
            link=link(), mix=(("cubic", flows),), duration=2.0, seed=i
        )
        for i in range(rows // flows)
    ]


@pytest.mark.parametrize(
    "submit",
    [
        lambda pts: Engine().run_points(pts),
        # A pool worker's chunk, executed here so the spies see it.
        lambda pts: list(engine_mod._execute_unit(pts, None)),
    ],
    ids=["inline-pool", "worker-chunk"],
)
def test_substrate_follows_group_rows(substrate_calls, submit):
    """A 63-row group runs on the scalar loop only, a 64-row group as
    one vectorized batch only."""
    submit(row_points(63, flows=3))
    assert substrate_calls == {"scalar": 21, "vec": 0}
    submit(row_points(64, flows=2))
    assert substrate_calls == {"scalar": 21, "vec": 1}


def test_a_grid_of_cheap_points_is_one_vec_call(substrate_calls):
    """The two shapes the benchmark submits — ``vec_grid``'s 40 points
    of 20 flows and ``warm_resume``'s populate of 300 two-flow points —
    each pay the vectorized substrate's fixed tick cost once."""
    grid = [
        ScenarioPoint(
            link=link(bdp=buffer, mbps=100, rtt=40),
            mix=(("cubic", 20 - k), ("bbr", k)),
            duration=1.0,
            seed=5 * i + j,
        )
        for i, buffer in enumerate((0.5, 1, 2, 3, 5, 8, 12, 20))
        for j, k in enumerate((2, 6, 10, 14, 18))
    ]
    engine = Engine(jobs=1)
    assert len(engine.run_points(grid)) == 40
    assert substrate_calls == {"scalar": 0, "vec": 1}
    sweep = [
        ScenarioPoint(
            link=link(bdp=1 + i % 10, mbps=50, rtt=(20, 80)[i % 2]),
            mix=(("cubic", 1), ("bbr", 1)),
            duration=1.0,
            seed=i,
        )
        for i in range(300)
    ]
    assert len(engine.run_points(sweep)) == 300
    assert substrate_calls == {"scalar": 0, "vec": 2}
    assert engine.simulated == 340


def test_substrate_follows_trial_rows_of_one_point(substrate_calls):
    run_mix(link(), [("cubic", 9)], duration=2.0, trials=7)  # 63 rows
    assert substrate_calls == {"scalar": 7, "vec": 0}
    run_mix(link(), [("cubic", 8)], duration=2.0, trials=8)  # 64 rows
    assert substrate_calls == {"scalar": 7, "vec": 1}


def test_a_checked_pool_stays_scalar(substrate_calls):
    """A live checker keeps even a 640-row pool on the scalar
    substrate — the only one with law checks."""
    from repro.check import Checker, use as use_check

    with use_check(Checker()):
        Engine().run_points(row_points(640, flows=20))
    assert substrate_calls == {"scalar": 32, "vec": 0}


def test_a_traced_fluid_request_stays_scalar(substrate_calls):
    """A bus handed to a 64-row fluid request keeps it on the scalar
    loop — the only one with per-flow cc.* events — and moves no bit."""
    mix = [("cubic", 4), ("bbr", 4)]
    plain = run_mix(link(), mix, duration=2.0, trials=8)
    assert substrate_calls == {"scalar": 0, "vec": 1}
    obs = Telemetry()
    traced = run_mix(link(), mix, duration=2.0, trials=8, obs=obs)
    assert substrate_calls == {"scalar": 8, "vec": 1}
    assert traced == plain
    assert any(e.name.startswith("cc.") for e in obs.events)


def test_lost_vec_unit_is_rerun_as_a_vec_batch(substrate_calls, monkeypatch):
    """A unit that would have run vectorized in its worker runs
    vectorized in the retry too — not as 32 scalar solos."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("monkeypatched worker entry needs fork start method")

    pool = row_points(128, flows=2)  # Two units of 32 points, 64 rows.
    monkeypatch.setattr(engine_mod, "_worker_unit", _die_in_worker)
    engine = Engine(jobs=2)
    results = engine.run_points(pool)
    assert engine.worker_failures == 1
    assert substrate_calls == {"scalar": 0, "vec": 2}
    assert results == solo_runs(pool)


def test_inline_unit_checkpoints_per_point(tmp_path):
    """Points that run on their own are stored and yielded one by one
    even when they share a unit: stopping after the first result leaves
    one simulation done and one cache entry, not the whole unit."""
    cache = ResultCache(tmp_path)
    engine = Engine(jobs=1, cache=cache)
    pts = [
        ScenarioPoint(
            link=link(mbps=5),
            mix=(("cubic", 1), ("bbr", 1)),
            duration=2.0,
            backend="packet",
            seed=i,
        )
        for i in range(3)
    ]
    units = engine._dispatch_units({p.fingerprint(): p for p in pts})
    assert [len(unit) for unit in units] == [3]
    stream = engine.iter_points(pts)
    index, result, _elapsed = next(stream)
    stream.close()
    assert result == ScenarioResult.from_dict(
        cache.get(pts[index].fingerprint())
    )
    assert engine.simulated == 1
    assert len(cache) == 1


def test_chunked_batch_shares_duplicate_executions():
    pts = vec_points(3) + vec_points(3)
    engine = Engine(jobs=1)
    results = engine.run_points(pts)
    assert results[:3] == results[3:]
    assert engine.simulated == 3
    assert engine.done == 6


def test_del_swallows_recoverable_close_errors(monkeypatch):
    """GC-time close races (pool already torn down) are counted, not
    raised; anything unexpected escapes with context."""
    engine = Engine(jobs=1)

    def broken_close():
        raise OSError("pool machinery already gone")

    monkeypatch.setattr(engine, "close", broken_close)
    engine.__del__()  # Must not raise.
    assert engine.close_errors == 1
    assert engine.stats["close_errors"] == 1


def test_del_reraises_unexpected_close_errors(monkeypatch):
    engine = Engine(jobs=1)

    def broken_close():
        raise ValueError("not a teardown race")

    monkeypatch.setattr(engine, "close", broken_close)
    with pytest.raises(RuntimeError, match="during finalization"):
        engine.__del__()
    assert engine.close_errors == 0
