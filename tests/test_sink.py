"""Streaming result pipeline: sinks, bounded memory, crash windows.

The contracts under test (see ``docs/CAMPAIGNS.md``):

* ``CsvSink`` streamed output is byte-identical to the seed
  collect-then-write writer (kept below as ``_write_csv``, the
  reference), including first-seen column order,
  column growth mid-stream, and the empty-header zero-row case.
* ``CampaignSink`` reorders completion-order arrivals into unit order
  and buffers only the out-of-order frontier.
* A campaign killed in *any* window — after the journal fsync but
  before the CSV flush included — resumes to a byte-identical
  ``results.csv``.
* Peak memory of a sweep campaign is flat in unit count: growing the
  campaign ~10x must not grow the per-unit high-water mark.
"""

import csv
import filecmp
import gzip
import json
import tracemalloc

import pytest

from repro.campaign import (
    CampaignSink,
    CsvSink,
    Journal,
    JsonlSink,
    SinkError,
    expand_units,
    parse_spec,
    resolve_artifact,
    run_campaign,
)
from repro.campaign.run import UnitOutcome, iter_units
from repro.exec import Engine, ResultCache

BASE = {
    "name": "t",
    "link": {"bandwidth_mbps": 20.0, "rtt_ms": 20.0, "buffer_bdp": 1.0},
    "defaults": {
        "duration": 5.0,
        "backend": "fluid",
        "mix": "cubic:1,bbr:1",
    },
    "axes": [{"name": "buffer_bdp", "values": [1, 2, 3]}],
}


def _spec(**overrides):
    data = json.loads(json.dumps(BASE))  # Deep copy.
    data.update(overrides)
    return parse_spec(data)


def _outcome(index, rows, stage="sweep"):
    return UnitOutcome(
        unit_id=f"u{index}",
        index=index,
        stage=stage,
        rows=tuple(rows),
        wall_s=0.01,
        from_journal=False,
    )


# -- CsvSink byte-equality ---------------------------------------------------


def _write_csv(path, outcomes):
    """The seed's collect-then-write CSV writer, the byte-compat
    reference: all rows in unit order, columns in first-seen order."""
    columns = []
    rows = []
    for outcome in outcomes:
        for row in outcome.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
            rows.append(row)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(column, "") for column in columns])
    return len(rows)


ROWSETS = [
    # Uniform columns.
    [
        [{"a": 1, "b": 2.5}],
        [{"a": 3, "b": 4.5}],
    ],
    # Column growth mid-stream (unit 1 introduces "c").
    [
        [{"a": 1}],
        [{"a": 2, "c": "x"}],
        [{"c": "y", "a": 3}],
    ],
    # Ragged rows + a unit with no rows at all.
    [
        [{"a": 1, "b": 2}],
        [],
        [{"b": 5}, {"a": 6, "d": "q,uote"}],
    ],
    # Zero rows everywhere: header only.
    [[], []],
    # First units empty, columns learned late.
    [
        [],
        [{"z": 0, "a": 1}],
    ],
]


@pytest.mark.parametrize("rowsets", ROWSETS)
def test_csv_sink_matches_seed_writer(tmp_path, rowsets):
    outcomes = [_outcome(i, rows) for i, rows in enumerate(rowsets)]
    seed_path = tmp_path / "seed.csv"
    _write_csv(seed_path, outcomes)

    sink = CsvSink(tmp_path / "stream.csv")
    for outcome in outcomes:
        sink.append(outcome.rows)
        sink.flush()
    sink.close()

    assert (tmp_path / "stream.csv").read_bytes() == seed_path.read_bytes()
    assert sink.rows_written == sum(len(r) for r in rowsets)


def test_csv_sink_widen_streams_through_temp_file(tmp_path):
    """Column growth rewrites the file row-at-a-time and keeps going."""
    sink = CsvSink(tmp_path / "w.csv")
    sink.append([{"a": i} for i in range(50)])
    sink.append([{"a": 50, "b": "new"}])
    sink.close()
    with open(tmp_path / "w.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["a", "b"]
    assert rows[1] == ["0", ""]  # Old rows padded to the new width.
    assert rows[-1] == ["50", "new"]
    assert not list(tmp_path.glob("*.tmp.*"))


def test_csv_sink_rejects_rows_after_close(tmp_path):
    sink = CsvSink(tmp_path / "c.csv")
    sink.close()
    with pytest.raises(SinkError, match="closed"):
        sink.append([{"a": 1}])


def test_jsonl_sink_round_trips_rows(tmp_path):
    sink = JsonlSink(tmp_path / "r.jsonl")
    rows = [{"a": 1, "b": "x"}, {"b": "y", "a": 2}]
    sink.append(rows)
    sink.close()
    lines = (tmp_path / "r.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == rows
    # Key order is preserved, not sorted.
    assert lines[1].startswith('{"b"')
    assert sink.rows_written == 2


# -- CampaignSink ordering ---------------------------------------------------


def test_campaign_sink_reorders_completion_order(tmp_path):
    sink = CampaignSink(CsvSink(tmp_path / "o.csv"))
    sink.add(2, [{"i": 2}])
    sink.add(0, [{"i": 0}])
    assert sink.pending_units == 1  # Unit 2 waits for unit 1.
    assert sink.rows_written == 1
    sink.add(1, [{"i": 1}])
    assert sink.pending_units == 0
    assert sink.rows_written == 3
    sink.close()
    body = (tmp_path / "o.csv").read_text()
    assert body.splitlines()[1:] == ["0", "1", "2"]


def test_campaign_sink_rejects_duplicate_index(tmp_path):
    sink = CampaignSink(CsvSink(tmp_path / "d.csv"))
    sink.add(0, [{"i": 0}])
    with pytest.raises(SinkError, match="already written"):
        sink.add(0, [{"i": 0}])
    sink.add(2, [{"i": 2}])
    with pytest.raises(SinkError, match="already written"):
        sink.add(2, [{"i": 2}])


def test_campaign_sink_counts_buffered_rows(tmp_path):
    sink = CampaignSink(CsvSink(tmp_path / "b.csv"))
    sink.add(1, [{"i": 1}, {"i": 11}])
    assert sink.rows_seen == 2
    assert sink.rows_written == 0  # Gap at 0: nothing on disk yet.
    sink.close()


def test_resolve_artifact_prefers_plain_then_gz(tmp_path):
    plain = tmp_path / "x.csv"
    gz = tmp_path / "x.csv.gz"
    assert resolve_artifact(plain) is None
    with gzip.open(gz, "wt") as handle:
        handle.write("a\n1\n")
    assert resolve_artifact(plain) == gz
    plain.write_text("a\n2\n")
    assert resolve_artifact(plain) == plain


# -- crash windows -----------------------------------------------------------


def test_partial_csv_contains_exactly_journaled_units(tmp_path):
    spec = _spec()
    engine = Engine(cache=ResultCache(tmp_path / "cache"))
    summary = run_campaign(
        spec, tmp_path / "out", engine=engine, stop_after=2
    )
    assert summary.interrupted
    assert summary.rows == 2  # Running counter, no outcome list.
    with open(
        tmp_path / "out" / "results.csv", newline="", encoding="utf-8"
    ) as handle:
        rows = list(csv.reader(handle))
    journal = Journal.in_dir(tmp_path / "out")
    records = list(journal.iter_records())
    assert len(rows) == 1 + sum(len(r.rows) for r in records)


def test_kill_between_journal_fsync_and_csv_flush(tmp_path):
    """The nastiest window: unit journaled, CSV flush never landed.

    Simulated by truncating the partial CSV's last line after a clean
    stop — the journal then holds one more unit than the CSV, exactly
    what a SIGKILL between ``Journal.append`` and ``CsvSink.flush``
    leaves behind.  Resume must rebuild the CSV from the journal and
    converge to the uninterrupted bytes.
    """
    spec = _spec()
    ref_engine = Engine(cache=ResultCache(tmp_path / "cache-ref"))
    run_campaign(spec, tmp_path / "ref", engine=ref_engine)

    cache = tmp_path / "cache"
    run_campaign(
        spec,
        tmp_path / "out",
        engine=Engine(cache=ResultCache(cache)),
        stop_after=2,
    )
    csv_path = tmp_path / "out" / "results.csv"
    torn = csv_path.read_bytes()
    # Drop the final CSV row (and half of the one before it) while the
    # journal keeps both units.
    lines = torn.splitlines(keepends=True)
    half = lines[-1][: len(lines[-1]) // 2]
    csv_path.write_bytes(b"".join(lines[:-1]) + half)

    resumed = run_campaign(
        spec,
        tmp_path / "out",
        engine=Engine(cache=ResultCache(cache)),
        resume=True,
    )
    assert not resumed.interrupted
    assert resumed.from_journal == 2
    assert filecmp.cmp(
        tmp_path / "ref" / "results.csv", csv_path, shallow=False
    )


def test_resume_with_corrupt_partial_csv(tmp_path):
    """Even a garbage partial CSV is discarded; the journal wins."""
    spec = _spec()
    ref_engine = Engine(cache=ResultCache(tmp_path / "cache-ref"))
    run_campaign(spec, tmp_path / "ref", engine=ref_engine)

    cache = tmp_path / "cache"
    run_campaign(
        spec,
        tmp_path / "out",
        engine=Engine(cache=ResultCache(cache)),
        stop_after=1,
    )
    (tmp_path / "out" / "results.csv").write_text("not,a,real\ncsv\n")
    resumed = run_campaign(
        spec,
        tmp_path / "out",
        engine=Engine(cache=ResultCache(cache)),
        resume=True,
    )
    assert not resumed.interrupted
    assert filecmp.cmp(
        tmp_path / "ref" / "results.csv",
        tmp_path / "out" / "results.csv",
        shallow=False,
    )


def test_jsonl_mirror_written_and_rebuilt_on_resume(tmp_path):
    data = json.loads(json.dumps(BASE))
    data["output"] = {"jsonl": "results.jsonl"}
    spec = parse_spec(data)

    ref_engine = Engine(cache=ResultCache(tmp_path / "cache-ref"))
    run_campaign(spec, tmp_path / "ref", engine=ref_engine)
    ref_jsonl = tmp_path / "ref" / "results.jsonl"
    assert len(ref_jsonl.read_text().splitlines()) == 3

    cache = tmp_path / "cache"
    run_campaign(
        spec,
        tmp_path / "out",
        engine=Engine(cache=ResultCache(cache)),
        stop_after=2,
    )
    resumed = run_campaign(
        spec,
        tmp_path / "out",
        engine=Engine(cache=ResultCache(cache)),
        resume=True,
    )
    assert not resumed.interrupted
    assert filecmp.cmp(
        ref_jsonl, tmp_path / "out" / "results.jsonl", shallow=False
    )


# -- gzip-transparent artifact reads -----------------------------------------


def _gzip_artifact(path):
    with open(path, "rb") as src, gzip.open(str(path) + ".gz", "wb") as dst:
        dst.write(src.read())
    path.unlink()


def test_gzipped_artifacts_still_scored_and_statused(tmp_path):
    """Archived campaigns (.csv.gz/.jsonl.gz) keep working end-to-end."""
    from repro.campaign import campaign_progress, model_error_report

    data = json.loads(json.dumps(BASE))
    data["defaults"]["duration"] = 4.0
    data["axes"] = [
        {"name": "aqm", "values": ["droptail", "red"]},
        {"name": "backend", "values": ["fluid", "fluid-vec"]},
    ]
    data["metrics"] = {
        "columns": ["aggregate_mbps:cubic", "aggregate_mbps:bbr"]
    }
    spec = parse_spec(data)
    out = tmp_path / "out"
    engine = Engine(cache=ResultCache(tmp_path / "cache"))
    run_campaign(spec, out, engine=engine)

    _gzip_artifact(out / "results.csv")
    _gzip_artifact(out / "journal.jsonl")

    report = model_error_report(out, reference="fluid", share_cc="bbr")
    assert all(row.error == 0.0 for row in report.rows)

    status = campaign_progress(out)
    assert status["state"] == "complete"
    assert status["units"]["done"] == status["units"]["total"] == 4


# -- bounded memory ----------------------------------------------------------


def _fat_rows_engine(monkeypatch, blob_kb=16):
    """Make every engine point yield one ~``blob_kb`` KiB result row.

    The campaign layer only sees rows via ``_sweep_rows``; patching it
    keeps the real streaming plumbing (journal, sink, tracker) in the
    loop while making retention instantly visible in the heap.  Each
    row gets its own blob *object* — a shared constant would make
    retained rows nearly free and hide the leak.
    """
    from repro.campaign import vocab

    def fat_rows(spec, unit, result):
        combo = dict(unit.combo)
        blob = f"{unit.index:08d}" + "x" * (blob_kb * 1024)
        return ({"buffer_bdp": combo.get("buffer_bdp"), "blob": blob},)

    monkeypatch.setattr(vocab, "_sweep_rows", fat_rows)


def _peak_during_campaign(tmp_path, monkeypatch, blob_kb):
    data = json.loads(json.dumps(BASE))
    data["axes"] = [{"name": "buffer_bdp", "values": list(range(1, 105))}]
    spec = parse_spec(data)
    _fat_rows_engine(monkeypatch, blob_kb)
    engine = Engine(cache=ResultCache(tmp_path / f"cache-{blob_kb}"))
    tracemalloc.start()
    tracemalloc.reset_peak()
    run_campaign(spec, tmp_path / f"out-{blob_kb}", engine=engine)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_memory_plateau_rows_not_retained(tmp_path, monkeypatch):
    """Peak heap does not grow with the size of the rows a campaign
    streams.

    With the seed collect-everything pipeline 104 rows of 64 KiB kept
    6.5 MiB alive; streamed, the peak moves by a few rows at most.  Both
    runs simulate the same 104 points as one vectorized batch, whose
    ~2.3 MiB working set is freed before the first row is written — it
    is the floor of both peaks, which is why the rows are made fat
    enough to tower over it if they were retained.
    """
    thin = _peak_during_campaign(tmp_path, monkeypatch, 0)
    fat = _peak_during_campaign(tmp_path, monkeypatch, 64)
    assert fat - thin < 500 * 1024, (
        f"peak grew {fat - thin} bytes with 104 rows of 64 KiB — "
        "rows are being retained"
    )


def test_iter_units_consumers_do_not_accumulate(tmp_path):
    """iter_units yields outcomes one at a time, return flags interrupt."""
    spec = _spec()
    engine = Engine(cache=ResultCache(tmp_path / "cache"))
    stream = iter_units(spec, expand_units(spec), engine=engine)
    seen = []
    while True:
        try:
            outcome = next(stream)
        except StopIteration as stop:
            assert stop.value is False
            break
        seen.append(outcome.index)
    assert sorted(seen) == [0, 1, 2]

    stream = iter_units(
        spec, expand_units(spec), engine=engine, stop_after=2
    )
    count = 0
    while True:
        try:
            next(stream)
        except StopIteration as stop:
            assert stop.value is True
            break
        count += 1
    assert count == 2
