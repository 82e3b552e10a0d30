"""The documentation surface: presence, links, and honest examples.

The CI ``docs`` job runs ``tools/check_links.py`` and the doctests;
this module runs the same link check inside tier-1 so a broken doc
reference fails locally before CI, and pins the claims the README and
engine guide make against the actual registry/CLI surface (a renamed
engine or command must break these tests, not just go stale).
"""

import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from check_links import check_links  # noqa: E402


def test_no_broken_relative_links():
    broken = check_links(ROOT)
    assert not broken, "\n".join(broken)


def test_readme_exists_and_covers_quickstart():
    readme = (ROOT / "README.md").read_text()
    for command in ("repro throughput", "repro batch", "repro engines",
                    "python -m pytest"):
        assert command in readme, f"README must document `{command}`"
    assert "ARCHITECTURE.md" in readme
    assert "docs/engines.md" in readme


def test_engine_guide_names_every_registered_engine():
    from repro.mcrp import engine_names

    guide = (ROOT / "docs" / "engines.md").read_text()
    readme = (ROOT / "README.md").read_text()
    for name in engine_names():
        assert f"`{name}`" in guide, f"docs/engines.md must cover {name}"
        assert f"`{name}`" in readme, f"README engine table must list {name}"


def test_service_guide_backend_tables_match_registries():
    """docs/service.md's backend matrix is pinned to the live
    registries — a renamed or added backend must break this test, not
    silently go stale."""
    from repro.distributed import CACHE_BACKENDS, QUEUE_BACKENDS

    guide = (ROOT / "docs" / "service.md").read_text()
    for name in CACHE_BACKENDS:
        row = re.search(rf"^\| `{re.escape(name)}` \|.*$", guide,
                        re.MULTILINE)
        assert row, f"docs/service.md cache table must list {name}"
    for name in QUEUE_BACKENDS:
        assert f"`{name}`" in guide, (
            f"docs/service.md queue table must list {name}"
        )
    # every CLI verb of the fabric is documented
    for command in ("repro serve", "repro worker",
                    "repro batch", "repro serve-stats"):
        assert command.split()[1] in guide, (
            f"docs/service.md must document `{command}`"
        )


def test_service_guide_is_linked_from_readme_and_architecture():
    readme = (ROOT / "README.md").read_text()
    architecture = (ROOT / "ARCHITECTURE.md").read_text()
    assert "docs/service.md" in readme
    assert "docs/service.md" in architecture


def test_observability_guide_metric_table_matches_registry():
    """docs/observability.md's metric table is pinned to the live
    declaration table — adding, renaming, retyping or relabeling a
    family must update the doc, not let it go stale."""
    from repro.obs.metrics import METRICS

    guide = (ROOT / "docs" / "observability.md").read_text()
    for name, spec in METRICS.items():
        row = re.search(rf"^\| `{re.escape(name)}` \|.*$", guide,
                        re.MULTILINE)
        assert row, f"docs/observability.md must list {name}"
        assert f"| {spec.type} |" in row.group(0), (
            f"docs/observability.md row for {name} disagrees with the "
            f"declared type {spec.type}"
        )
        labels = ", ".join(spec.labels) if spec.labels else "—"
        assert f"| {labels} |" in row.group(0), (
            f"docs/observability.md row for {name} disagrees with the "
            f"declared labels {spec.labels}"
        )
    # no documented ghosts: every table row is a declared family
    for row in re.findall(r"^\| `(repro_[a-z_]+)` \|", guide,
                          re.MULTILINE):
        assert row in METRICS, (
            f"docs/observability.md documents {row}, which is not in "
            f"repro.obs.METRICS"
        )


def test_observability_guide_covers_spans_and_surfaces():
    guide = (ROOT / "docs" / "observability.md").read_text()
    for name in ("service.batch", "client.job", "pool.chunk",
                 "job.solve", "kiter.round", "fleet.round",
                 "worker.solve", "worker.nack", "coordinator.enqueue",
                 "coordinator.result"):
        assert f"`{name}`" in guide, (
            f"docs/observability.md span taxonomy must cover {name}"
        )
    for surface in ("REPRO_TRACE", "--trace", "repro trace",
                    "/metrics", "/trace/", "repro-bench/1",
                    "REPRO_PROFILE", "--profile", "repro profile",
                    "repro-profile/1", "REPRO_SLOWLOG", "repro replay",
                    "results/slowlog", "REPRO_BENCH_HISTORY",
                    "repro bench-report", "bench_history.jsonl",
                    "repro report", "/report"):
        assert surface in guide, (
            f"docs/observability.md must document {surface}"
        )
    readme = (ROOT / "README.md").read_text()
    architecture = (ROOT / "ARCHITECTURE.md").read_text()
    assert "docs/observability.md" in readme
    assert "docs/observability.md" in architecture


def test_cli_observatory_verbs_exist():
    from repro.cli import build_parser

    parser = build_parser()
    text = parser.format_help()
    for verb in ("profile", "replay", "bench-report", "report"):
        assert verb in text


def test_cli_distributed_verbs_exist():
    from repro.cli import build_parser

    parser = build_parser()
    text = parser.format_help()
    for verb in ("serve", "worker", "batch", "serve-stats"):
        assert verb in text


def test_architecture_engine_table_matches_registry():
    from repro.mcrp import engine_names
    from repro.mcrp.batched import BATCHED_ORACLES

    text = (ROOT / "ARCHITECTURE.md").read_text()
    for name in engine_names():
        row = re.search(rf"^\| `{re.escape(name)}` \|.*$", text,
                        re.MULTILINE)
        assert row, f"ARCHITECTURE.md engine table must list {name}"
        assert ("batched" in row.group(0)) == (name in BATCHED_ORACLES), (
            f"ARCHITECTURE.md row for {name} disagrees with "
            "BATCHED_ORACLES"
        )


def test_engine_guide_batched_section_matches_registry():
    """docs/engines.md's batched-solving claims are pinned to the live
    registry and the fleet kernel's oracle table — an engine gaining or
    losing a batched oracle must break this test."""
    from repro.mcrp import engine_names
    from repro.mcrp.batched import BATCHED_ORACLES

    guide = (ROOT / "docs" / "engines.md").read_text()
    assert "## Batched solving" in guide
    assert BATCHED_ORACLES <= set(engine_names())
    for name in BATCHED_ORACLES:
        assert f"`{name}`" in guide
    # the per-graph hand-off inside the kernel call is documented
    assert "`solve_mcrp` per-graph inside the kernel call" in guide


def test_scheduling_guide_policy_table_matches_registry():
    """docs/scheduling.md's policy table is pinned to the live policy
    registry — adding, renaming or reflagging a policy must update the
    doc, not let it go stale."""
    from repro.scheduling import all_policies, policy_names

    guide = (ROOT / "docs" / "scheduling.md").read_text()
    for info in all_policies():
        row = re.search(rf"^\| `{re.escape(info.name)}` \|.*$", guide,
                        re.MULTILINE)
        assert row, f"docs/scheduling.md must list {info.name}"
        assert ("resource-constrained" in row.group(0)) == (
            info.resource_constrained
        ), (
            f"docs/scheduling.md row for {info.name} disagrees with the "
            f"registry's resource_constrained={info.resource_constrained}"
        )
        assert ("refinement" in row.group(0)) == info.refinement, (
            f"docs/scheduling.md row for {info.name} disagrees with the "
            f"registry's refinement={info.refinement}"
        )
    # no documented ghosts: every table row is a registered policy
    for row in re.findall(r"^\| `([a-z-]+)` \|", guide, re.MULTILINE):
        assert row in policy_names(), (
            f"docs/scheduling.md documents {row}, which is not a "
            f"registered scheduling policy"
        )


def test_scheduling_guide_covers_cli_and_contract():
    guide = (ROOT / "docs" / "scheduling.md").read_text()
    for surface in ("repro policies", "repro schedule", "--policy",
                    "--resources", "--priority", "repro gantt"):
        assert surface in guide, (
            f"docs/scheduling.md must document `{surface}`"
        )
    # the honest-N/S binding contract and its escalation path
    for term in ("SchedulingError", "apply_mapping", "mobility"):
        assert term in guide


def test_scheduling_guide_is_linked_and_policies_named():
    from repro.scheduling import policy_names

    readme = (ROOT / "README.md").read_text()
    architecture = (ROOT / "ARCHITECTURE.md").read_text()
    assert "docs/scheduling.md" in readme
    assert "docs/scheduling.md" in architecture
    for name in policy_names():
        assert f"`{name}`" in readme, (
            f"README policy-zoo section must name {name}"
        )
        assert f"`{name}`" in architecture, (
            f"ARCHITECTURE.md policy-zoo section must name {name}"
        )


def test_cli_schedule_policy_verbs_exist():
    from repro.cli import build_parser

    parser = build_parser()
    assert "policies" in parser.format_help()


def test_dse_guide_edit_table_matches_session():
    """docs/dse.md's edit-method table is pinned to
    ``DseSession.EDIT_METHODS`` — adding, renaming or removing an edit
    method must update the doc, not let it go stale."""
    from repro.dse import DseSession

    guide = (ROOT / "docs" / "dse.md").read_text()
    for name in DseSession.EDIT_METHODS:
        row = re.search(rf"^\| `{re.escape(name)}\(", guide,
                        re.MULTILINE)
        assert row, f"docs/dse.md edit table must list {name}"
        assert callable(getattr(DseSession, name)), (
            f"EDIT_METHODS names {name}, which is not a DseSession "
            "method"
        )
    # no documented ghosts: every edit-table row is a real edit method
    for row in re.findall(r"^\| `([a-z_]+)\(", guide, re.MULTILINE):
        assert row in DseSession.EDIT_METHODS, (
            f"docs/dse.md documents {row}(), which is not in "
            "DseSession.EDIT_METHODS"
        )


def test_dse_guide_covers_cli_and_contract():
    guide = (ROOT / "docs" / "dse.md").read_text()
    for surface in ("repro explore", "--check", "--no-warm",
                    "ThroughputService.explore", "reset"):
        assert surface in guide, f"docs/dse.md must document `{surface}`"
    # the exactness contract and the downgrade rule are stated
    for term in ("bit-identical", "downgrade", "warm"):
        assert term in guide


def test_dse_guide_is_linked_from_readme_and_architecture():
    readme = (ROOT / "README.md").read_text()
    architecture = (ROOT / "ARCHITECTURE.md").read_text()
    assert "docs/dse.md" in readme
    assert "docs/dse.md" in architecture


def test_cli_explore_verb_exists():
    from repro.cli import build_parser

    parser = build_parser()
    assert "explore" in parser.format_help()


def test_check_links_flags_breakage(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "[ok](docs/real.md) [bad](docs/gone.md) "
        "[anchor](docs/real.md#missing) [ext](https://example.com)\n"
    )
    (tmp_path / "ARCHITECTURE.md").write_text("# Title\n")
    (tmp_path / "docs" / "real.md").write_text("# Real\n")
    broken = check_links(tmp_path)
    assert len(broken) == 2
    assert any("docs/gone.md" in row for row in broken)
    assert any("missing anchor" in row for row in broken)


def test_check_links_flags_missing_docs_named_in_docstrings(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "README.md").write_text("# Readme\n")
    (tmp_path / "docs" / "real.md").write_text("# Real\n")
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        '"""See README.md, docs/real.md and real.md."""\n'
        "\n"
        "def f():\n"
        '    """Documented in DESIGN.md §6, see https://x.org/GONE.md."""\n'
        '    return "docs/gone.md"  # not a docstring\n'
    )
    (tmp_path / "tests" / "test_x.py").write_text(
        '"""Line one.\n\nThe invariant lives in docs/missing.md."""\n'
    )
    broken = check_links(tmp_path)
    assert broken == [
        "src/pkg/mod.py:4: docstring names missing DESIGN.md",
        "tests/test_x.py:3: docstring names missing docs/missing.md",
    ]


def test_cli_engines_output_matches_docs_claims(capsys):
    from repro.cli import main
    from repro.mcrp import engine_names
    from repro.mcrp.batched import BATCHED_ORACLES

    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    for name in engine_names():
        line = re.search(rf"^  {re.escape(name)}\b.*$", out, re.MULTILINE)
        assert line, f"repro engines must list {name}"
        assert ("[batched]" in line.group(0)) == (name in BATCHED_ORACLES)


@pytest.mark.parametrize("snippet_graph_period", [2])
def test_readme_python_snippet_is_honest(snippet_graph_period):
    # the README's inline Python example, executed verbatim in spirit
    from fractions import Fraction

    from repro import sdf, throughput_kiter
    from repro.service import ThroughputService

    g = sdf({"A": 1, "B": 1}, [("A", "B", 1, 1, 0), ("B", "A", 1, 1, 1)])
    assert throughput_kiter(g, engine="hybrid").period == Fraction(
        snippet_graph_period
    )
    with ThroughputService(workers=0) as service:
        outcomes = service.submit_many([g])
    assert outcomes[0].period == Fraction(snippet_graph_period)
