"""Job digests are remote cache keys: they must never drift.

``tests/data/job_digests.json`` pins the canonical-JSON job digest of
every golden-corpus graph (plus two inline reference graphs that need
no corpus files) under the service's default solve parameters. A
distributed deployment shares these digests across hosts, Python
versions and code revisions — if current code computes a different
byte sequence, every remote cache entry silently misses and every
in-flight dedup breaks. Any *intentional* change must bump
``CACHE_SCHEMA_VERSION`` and regenerate the fixture
(``python tools/make_golden_corpus.py --digests-only``); this module
exists to make the unintentional kind loud.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.io import load_graph
from repro.model import sdf
from repro.service import CACHE_SCHEMA_VERSION, ThroughputJob

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "job_digests.json"

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))


def _fixture():
    if not FIXTURE.exists():
        pytest.skip("job digest fixture not present")
    return json.loads(FIXTURE.read_text())


def _job_options(fixture):
    options = dict(fixture["job_defaults"])
    options["fallback_engines"] = tuple(options["fallback_engines"])
    return options


def _inline_graphs():
    # Kept in lockstep with tools/make_golden_corpus.py's
    # inline_reference_graphs(); built here independently so the pin
    # holds even without the corpus files.
    return {
        "inline:two_cycle": sdf(
            {"A": 1, "B": 1},
            [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)],
            name="two_cycle",
        ),
        "inline:multirate": sdf(
            {"A": 1, "B": 2},
            [("A", "B", 2, 3, 0), ("B", "A", 3, 2, 6)],
            name="multirate",
        ),
    }


def test_fixture_matches_live_schema_version():
    fixture = _fixture()
    assert fixture["cache_schema_version"] == CACHE_SCHEMA_VERSION, (
        "CACHE_SCHEMA_VERSION changed without regenerating "
        "tests/data/job_digests.json"
    )


def test_fixture_defaults_match_service_defaults():
    from repro.service import ThroughputService

    fixture = _fixture()
    service = ThroughputService()
    defaults = fixture["job_defaults"]
    assert defaults["engine"] == service.engine
    assert tuple(defaults["fallback_engines"]) == service.fallback_engines
    assert defaults["update_policy"] == service.update_policy


def test_corpus_job_digests_are_stable():
    fixture = _fixture()
    options = _job_options(fixture)
    checked = 0
    for entry in fixture["jobs"]:
        if entry["source"].startswith("inline:"):
            continue
        path = DATA / entry["source"]
        if not path.exists():
            continue  # sparse checkout
        job = ThroughputJob.from_graph(load_graph(path), **options)
        assert job.graph_digest == entry["graph_digest"], entry["source"]
        assert job.digest == entry["digest"], entry["source"]
        checked += 1
    if checked == 0:
        pytest.skip("no corpus graphs present")


def test_inline_job_digests_are_stable():
    fixture = _fixture()
    options = _job_options(fixture)
    inline = _inline_graphs()
    pinned = {
        e["source"]: e for e in fixture["jobs"]
        if e["source"].startswith("inline:")
    }
    assert set(pinned) == set(inline), "inline case sets diverged"
    for source, graph in inline.items():
        job = ThroughputJob.from_graph(graph, **options)
        assert job.graph_digest == pinned[source]["graph_digest"], source
        assert job.digest == pinned[source]["digest"], source


def test_regenerator_reproduces_the_checked_in_fixture(tmp_path):
    """`--digests-only` output is byte-identical to the fixture."""
    import make_golden_corpus

    if not (DATA / "golden_index.json").exists():
        pytest.skip("golden corpus not present")
    before = FIXTURE.read_bytes()
    try:
        make_golden_corpus.write_job_digests()
        assert FIXTURE.read_bytes() == before, (
            "tools/make_golden_corpus.py regenerates a different "
            "job_digests.json than the one checked in"
        )
    finally:
        FIXTURE.write_bytes(before)
