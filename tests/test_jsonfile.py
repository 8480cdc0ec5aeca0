"""JSON document artifacts are written one way, atomically."""

import errno
import json
import os

import pytest

from repro.campaign import parse_spec
from repro.campaign import run as campaign_run
from repro.obs.manifest import CampaignManifest, RunManifest
from repro.obs.progress import ProgressTracker
from repro.population import ErrorMap
from repro.util import jsonfile
from repro.util.config import LinkConfig
from repro.util.jsonfile import write_json_atomic


def test_writes_indented_json_with_a_trailing_newline(tmp_path):
    path = tmp_path / "doc.json"
    write_json_atomic(path, {"b": 1, "a": [1, 2]}, sort_keys=True)
    assert path.read_text() == json.dumps(
        {"a": [1, 2], "b": 1}, indent=2
    ) + "\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("previous", [b'{"old": true}\n', None])
def test_failed_dump_leaves_the_previous_document(tmp_path, previous):
    path = tmp_path / "doc.json"
    if previous is not None:
        path.write_bytes(previous)
    # The encoder streams: "ok" is already in the temp file when the
    # unserializable value raises.
    with pytest.raises(TypeError):
        write_json_atomic(path, {"ok": 1, "bad": object()})
    if previous is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir() if p != path] == []


def test_temp_name_is_per_process(tmp_path, monkeypatch):
    staged = []
    replace = os.replace

    def spy(src, dst):
        staged.append(str(src))
        replace(src, dst)

    monkeypatch.setattr(jsonfile.os, "replace", spy)
    write_json_atomic(tmp_path / "doc.json", {})
    assert staged == [f"{tmp_path / 'doc.json'}.tmp.{os.getpid()}"]


def _spec():
    return parse_spec(
        {
            "name": "t",
            "link": {"bandwidth_mbps": 20.0, "rtt_ms": 20.0},
            "defaults": {"duration": 5.0, "mix": "cubic:1,bbr:1"},
            "axes": [{"name": "buffer_bdp", "values": [1, 2]}],
        }
    )


WRITERS = {
    "campaign-manifest": lambda path: CampaignManifest.build(
        "t", "f" * 64, 2, 0, 2, 2, 0.1, "results.csv"
    ).write(str(path)),
    "run-manifest": lambda path: RunManifest.build(
        "t",
        LinkConfig.from_mbps_ms(20, 20, 2),
        [("cubic", 1)],
        "fluid",
        5.0,
        seed=0,
    ).write(str(path)),
    "error-map": lambda path: ErrorMap().save(str(path)),
    "progress-sidecar": lambda path: ProgressTracker(total=1).write_sidecar(
        str(path)
    ),
    "campaign-spec-file": lambda path: campaign_run._write_spec_file(
        _spec(), path.parent
    ),
}


@pytest.mark.parametrize("name", WRITERS)
def test_every_document_writer_survives_a_failed_write(
    tmp_path, monkeypatch, name
):
    """ENOSPC halfway through any of the five artifact writers: the
    previous document stays, byte for byte, and no temp is left."""
    path = tmp_path / campaign_run.SPEC_NAME  # The spec writer's name.
    WRITERS[name](path)
    before = path.read_bytes()
    assert json.loads(before) is not None

    def torn_dump(document, handle, **kwargs):
        handle.write('{"torn": ')
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(jsonfile.json, "dump", torn_dump)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[name](path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
