"""The warm path does each thing once — counted, never timed.

A unit answered from the cache costs one unit-id hash, one point
fingerprint, one open-and-read of the cache entry, one journal line
(written, flushed and fsync-ed through a handle opened once per run) and
its CSV row; ``progress.json`` is written at a human rate, not per unit.
Every assertion here is a call count under monkeypatched counters or an
injected clock, so nothing depends on how fast the machine is.
"""

import builtins
import gc
import gzip
import io
import json
import math
import os
import warnings

import pytest

import repro.campaign.expand as expand_mod
import repro.campaign.run as run_mod
import repro.exec.fingerprint as fingerprint_mod
from repro.campaign import (
    Journal,
    JournalRecord,
    campaign_progress,
    parse_spec,
    run_campaign,
)
from repro.campaign.status import SIDECAR_FRESH_S
from repro.exec import Engine, ResultCache
from repro.obs.progress import PROGRESS_NAME, ProgressTracker

UNITS = 20
JOURNAL = "journal.jsonl"


def _spec():
    return parse_spec(
        {
            "name": "warm",
            "link": {
                "bandwidth_mbps": 20.0,
                "rtt_ms": 20.0,
                "buffer_bdp": 1.0,
            },
            "defaults": {
                "duration": 2.0,
                "backend": "fluid",
                "mix": "cubic:1,bbr:1",
            },
            "axes": [
                {"name": "buffer_bdp", "values": [1, 2, 3, 5]},
                {"name": "seed", "values": [1, 2, 3, 4, 5]},
            ],
        }
    )


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """``(cache root, the cold run's CSV bytes)`` of the 20-unit sweep."""
    root = tmp_path_factory.mktemp("warm-path")
    engine = Engine(cache=ResultCache(root / "cache"))
    cold = run_campaign(_spec(), root / "cold", engine=engine)
    assert engine.stats["simulated"] == UNITS
    return root / "cache", cold.csv_path.read_bytes()


def _warm_engine(filled):
    return Engine(cache=ResultCache(filled[0]))


class Counters:
    """Counts, per ``run_campaign``, the calls a warm unit is made of."""

    def __init__(self, monkeypatch, cache_root):
        self.cache_root = str(cache_root)
        self.hashes = {}
        self.fsyncs = 0
        self.opens = []  # (path, mode)
        self.stats = []  # paths
        real_hash = fingerprint_mod.fingerprint_payload
        real_fsync, real_stat, real_open = os.fsync, os.stat, builtins.open

        def hashed(kind, params):
            self.hashes[kind] = self.hashes.get(kind, 0) + 1
            return real_hash(kind, params)

        def fsync(fd):
            self.fsyncs += 1
            return real_fsync(fd)

        def stat(path, *args, **kwargs):
            if not isinstance(path, int):
                self.stats.append(os.fspath(path))
            return real_stat(path, *args, **kwargs)

        def opened(path, mode="r", *args, **kwargs):
            if not isinstance(path, int):
                self.opens.append((os.fspath(path), mode))
            return real_open(path, mode, *args, **kwargs)

        # The unit id binds the name at import; the point fingerprint
        # reads the module global.
        monkeypatch.setattr(fingerprint_mod, "fingerprint_payload", hashed)
        monkeypatch.setattr(expand_mod, "fingerprint_payload", hashed)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "stat", stat)
        monkeypatch.setattr(builtins, "open", opened)
        monkeypatch.setattr(io, "open", opened)

    def reset(self):
        self.hashes.clear()
        self.fsyncs = 0
        del self.opens[:], self.stats[:]

    def journal_appends(self):
        return [
            path
            for path, mode in self.opens
            if os.path.basename(path) == JOURNAL and mode.startswith("a")
        ]

    def cache_opens(self):
        return [p for p, _mode in self.opens if p.startswith(self.cache_root)]

    def cache_stats(self):
        return [p for p in self.stats if p.startswith(self.cache_root)]


# -- one of each per unit -----------------------------------------------------


def test_warm_run_hashes_opens_and_fsyncs_once_per_unit(
    tmp_path, monkeypatch, filled
):
    counters = Counters(monkeypatch, filled[0])
    engine = _warm_engine(filled)
    summary = run_campaign(_spec(), tmp_path / "out", engine=engine)

    assert engine.stats["cache_hits"] == UNITS
    assert engine.stats["simulated"] == 0
    assert summary.csv_path.read_bytes() == filled[1]
    assert counters.hashes["campaign_unit"] == UNITS
    assert counters.hashes["run_mix"] == UNITS
    # Journal header, one per record, CSV close.
    assert counters.fsyncs == UNITS + 2
    assert len(counters.journal_appends()) == 1
    # One open per hit, and nothing asks the filesystem about the entry
    # before (or instead of) reading it.
    assert len(counters.cache_opens()) == UNITS
    assert counters.cache_stats() == []


def test_stopped_then_resumed_pair_keeps_the_per_unit_counts(
    tmp_path, monkeypatch, filled
):
    counters = Counters(monkeypatch, filled[0])
    out = tmp_path / "out"
    half = UNITS // 2

    stopped = run_campaign(
        _spec(), out, engine=_warm_engine(filled), stop_after=half
    )
    assert stopped.interrupted and stopped.executed == half
    # Every expanded unit is hashed at most once; only the points that
    # ran are fingerprinted and read.
    assert counters.hashes["campaign_unit"] == UNITS
    assert counters.hashes["run_mix"] == half
    assert counters.fsyncs == half + 2
    assert len(counters.journal_appends()) == 1
    assert len(counters.cache_opens()) == half

    counters.reset()
    resumed = run_campaign(
        _spec(), out, engine=_warm_engine(filled), resume=True
    )
    assert resumed.from_journal == half and resumed.executed == half
    assert resumed.csv_path.read_bytes() == filled[1]
    assert counters.hashes["campaign_unit"] == UNITS
    assert counters.hashes["run_mix"] == half
    # A resumed run writes no journal header.
    assert counters.fsyncs == half + 1
    assert len(counters.journal_appends()) == 1
    assert len(counters.cache_opens()) == half
    assert counters.cache_stats() == []


# -- progress.json at a human rate --------------------------------------------


class SidecarLog:
    """Records ``done`` at every sidecar write; ``tick`` is how far the
    injected clock moves per reading."""

    def __init__(self, monkeypatch, tick):
        self.done = []
        self.now = 0.0
        real_write = ProgressTracker.write_sidecar

        def write_sidecar(tracker, path):
            self.done.append(tracker.done)
            real_write(tracker, path)

        def clock():
            self.now += tick
            return self.now

        monkeypatch.setattr(ProgressTracker, "write_sidecar", write_sidecar)
        monkeypatch.setattr(run_mod, "perf_counter", clock)


def test_sidecar_cadence_is_bounded_by_the_clock(
    tmp_path, monkeypatch, filled
):
    assert 0 < run_mod.SIDECAR_INTERVAL_S <= SIDECAR_FRESH_S / 10
    log = SidecarLog(monkeypatch, tick=0.3 * run_mod.SIDECAR_INTERVAL_S)
    fired = []
    run_campaign(
        _spec(),
        tmp_path / "out",
        engine=_warm_engine(filled),
        on_progress=lambda tracker: fired.append(tracker.done),
    )
    intervals = math.ceil(log.now / run_mod.SIDECAR_INTERVAL_S)
    assert 2 < len(log.done) <= 2 + intervals
    assert log.done[0] == 0 and log.done[-1] == UNITS
    assert log.done == sorted(log.done)
    # The live hook is not rate-limited.
    assert fired == list(range(1, UNITS + 1))
    data = json.loads((tmp_path / "out" / PROGRESS_NAME).read_text())
    assert data["done"] == data["total"] == UNITS


def test_sidecar_is_written_twice_when_the_clock_stands_still(
    tmp_path, monkeypatch, filled
):
    log = SidecarLog(monkeypatch, tick=0.0)
    run_campaign(_spec(), tmp_path / "out", engine=_warm_engine(filled))
    assert log.done == [0, UNITS]


def _journal_count(out):
    return sum(1 for _ in Journal.in_dir(out).iter_records())


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_sidecar_agrees_with_journal_after_a_failing_hook(
    tmp_path, monkeypatch, filled, error
):
    SidecarLog(monkeypatch, tick=0.0)  # No interval write can help.
    out = tmp_path / "out"

    def on_progress(tracker):
        if tracker.done == 7:
            raise error("stop here")

    with pytest.raises(error):
        run_campaign(
            _spec(), out, engine=_warm_engine(filled), on_progress=on_progress
        )
    data = json.loads((out / PROGRESS_NAME).read_text())
    assert data["done"] == _journal_count(out) == 7


def test_sidecar_agrees_with_journal_after_a_failing_unit(
    tmp_path, monkeypatch, filled
):
    """What ``--check``'s InvariantViolation looks like to the campaign
    layer: the unit stream raises before the unit is journaled."""
    import repro.campaign.vocab as vocab_mod
    from repro.check import InvariantViolation

    SidecarLog(monkeypatch, tick=0.0)
    out = tmp_path / "out"
    real_rows = vocab_mod._sweep_rows

    def rows(spec, unit, result):
        if unit.index == 5:
            raise InvariantViolation("injected")
        return real_rows(spec, unit, result)

    monkeypatch.setattr(vocab_mod, "_sweep_rows", rows)
    with pytest.raises(InvariantViolation):
        run_campaign(_spec(), out, engine=_warm_engine(filled))
    data = json.loads((out / PROGRESS_NAME).read_text())
    assert data["done"] == _journal_count(out) == 5

    # The journal handle was released on the way out: resume completes.
    monkeypatch.setattr(vocab_mod, "_sweep_rows", real_rows)
    resumed = run_campaign(
        _spec(), out, engine=_warm_engine(filled), resume=True
    )
    assert resumed.csv_path.read_bytes() == filled[1]


# -- durability with the kept-open handle -------------------------------------


def test_unit_line_is_complete_and_synced_before_it_is_accounted(
    tmp_path, monkeypatch, filled
):
    out = tmp_path / "out"
    path = out / JOURNAL
    synced = []  # Journal size at each fsync of the journal.
    real_fsync = os.fsync

    def fsync(fd):
        real_fsync(fd)
        if path.exists() and os.fstat(fd).st_ino == path.stat().st_ino:
            synced.append(os.fstat(fd).st_size)

    monkeypatch.setattr(os, "fsync", fsync)
    seen = []

    def on_progress(tracker):
        # A second reader, opened while the writer's handle stays open.
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        assert len(raw) == synced[-1]  # Nothing in the file is unsynced.
        lines = raw.decode("utf-8").splitlines()
        assert len(lines) == 1 + tracker.done
        seen.append(json.loads(lines[-1])["index"])

    run_campaign(
        _spec(), out, engine=_warm_engine(filled), on_progress=on_progress
    )
    assert seen == list(range(UNITS))
    assert len(synced) == 1 + UNITS


def test_journal_bytes_are_the_text_mode_writers(tmp_path, filled):
    """The kept-open binary handle writes what the per-record text-mode
    ``open(..., "a")`` of earlier commits wrote, so their journals resume
    here (and ours there) to the same CSV."""
    out = tmp_path / "out"
    run_campaign(
        _spec(), out, engine=_warm_engine(filled), stop_after=UNITS // 2
    )
    journal = Journal.in_dir(out)
    header = journal.read_header()
    reference = tmp_path / "reference.jsonl"
    with open(reference, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, separators=(",", ":")) + "\n")
    for record in journal.iter_records():
        with open(reference, "a", encoding="utf-8") as handle:
            handle.write(record.to_line() + "\n")
    assert journal.path.read_bytes() == reference.read_bytes()

    resumed = run_campaign(
        _spec(), out, engine=_warm_engine(filled), resume=True
    )
    assert resumed.csv_path.read_bytes() == filled[1]


def test_gz_journal_is_readable_while_a_resume_appends_to_it(
    tmp_path, filled
):
    out = tmp_path / "out"
    half = UNITS // 2
    run_campaign(_spec(), out, engine=_warm_engine(filled), stop_after=half)
    plain = out / JOURNAL
    archived = out / (JOURNAL + ".gz")
    archived.write_bytes(gzip.compress(plain.read_bytes()))
    plain.unlink()
    live = []

    def on_progress(tracker):
        # ``campaign status`` against the live directory: every append
        # so far is a finished gzip member.
        status = campaign_progress(out)
        assert status["units"]["done"] == tracker.done
        live.append(tracker.done)

    resumed = run_campaign(
        _spec(),
        out,
        engine=_warm_engine(filled),
        resume=True,
        on_progress=on_progress,
    )
    assert live == list(range(half + 1, UNITS + 1))
    assert not plain.exists()
    assert resumed.csv_path.read_bytes() == filled[1]
    lines = gzip.decompress(archived.read_bytes()).splitlines()
    assert len(lines) == 1 + UNITS


def test_journal_handle_is_reopened_after_close_and_closed_on_del(tmp_path):
    record = JournalRecord(
        unit_id="u", index=0, stage="s", rows=({"x": 1},), wall_s=0.0
    )
    journal = Journal(tmp_path / JOURNAL)
    journal.create("t", "f" * 64)
    journal.append(record)
    journal.close()
    journal.close()  # Idempotent.
    journal.append(record)
    assert sum(1 for _ in journal.iter_records()) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        del journal  # Owns an open handle: must not leak it.
        gc.collect()


# -- one look at the cache entry ----------------------------------------------


def _first_look(monkeypatch, entry, action):
    """Run ``action`` right after the first filesystem call that names
    ``entry`` (a ``stat`` or an ``open``) has returned or raised —
    another campaign touching the shared cache at the worst moment."""
    fired = []

    def hooked(real):
        def call(path, *args, **kwargs):
            try:
                return real(path, *args, **kwargs)
            finally:
                named = not isinstance(path, int) and (
                    os.fspath(path) == str(entry)
                )
                if named and not fired:
                    fired.append(True)
                    action()

        return call

    monkeypatch.setattr(os, "stat", hooked(os.stat))
    monkeypatch.setattr(builtins, "open", hooked(builtins.open))
    monkeypatch.setattr(io, "open", hooked(io.open))
    return fired


def _one_point(filled):
    """The sweep's first point and where its cache entry lives."""
    point = expand_mod.expand_units(_spec())[0].to_point()
    return point, ResultCache(filled[0]).path_for(point.fingerprint())


def test_entry_cleared_mid_lookup_is_not_a_cache_error(
    tmp_path, monkeypatch, filled
):
    point, entry = _one_point(filled)
    saved = entry.read_bytes()
    fired = _first_look(monkeypatch, entry, entry.unlink)
    engine = _warm_engine(filled)
    try:
        [result] = engine.run_points([point])
    finally:
        monkeypatch.undo()
        entry.write_bytes(saved)
    assert fired
    # The one read either got the entry or did not; it never reports a
    # vanished file as a corrupt one.
    assert engine.stats["cache_errors"] == 0
    assert engine.stats["cache_hits"] + engine.stats["simulated"] == 1
    assert result.to_dict() == json.loads(saved)["payload"]


def test_entry_written_mid_lookup_is_a_clean_miss(
    tmp_path, monkeypatch, filled
):
    point, entry = _one_point(filled)
    saved = entry.read_bytes()
    entry.unlink()
    # The one look said "no entry"; what another writer lands after it
    # (here: something unusable) is the next lookup's business.
    fired = _first_look(
        monkeypatch, entry, lambda: entry.write_bytes(saved[:40])
    )
    engine = _warm_engine(filled)
    try:
        engine.run_points([point])
    finally:
        monkeypatch.undo()
        entry.write_bytes(saved)
    assert fired
    assert engine.stats["cache_errors"] == 0
    assert engine.stats["cache_misses"] == 1
    assert engine.stats["simulated"] == 1


def test_truncated_entry_counts_one_error_in_stats_and_telemetry(
    tmp_path, filled
):
    point, entry = _one_point(filled)
    saved = entry.read_bytes()
    engine = Engine(cache=ResultCache(filled[0]))
    entry.write_bytes(saved[: len(saved) // 2])
    try:
        [result] = engine.run_points([point])
    finally:
        repaired = entry.read_bytes()
        entry.write_bytes(saved)
    # Counted once, in the engine's record (no bus reaches the engine).
    assert engine.stats["cache_errors"] == 1
    assert engine.stats["simulated"] == 1
    assert repaired == saved  # Re-simulated and stored again.
    assert result.to_dict() == json.loads(saved)["payload"]
