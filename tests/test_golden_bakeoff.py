"""Golden-report regression: every mitigation's pinned bake-off digest.

The fixtures in ``tests/golden/bakeoff_<name>.json`` pin each
mitigation's :meth:`BakeoffReport.mitigation_digest` for the canonical
scenario (the seed-7 fleet where the unmitigated baseline demonstrably
corrupts a victim VM).  Any behavioural drift — placement order, attack
outcome, capacity arithmetic, report fields — moves the digest and
fails here LOUDLY, with the regeneration command in the message.

Intentional changes: rerun ``PYTHONPATH=src python
tests/golden/regen_bakeoff.py`` and commit the updated fixtures; the
diff then documents exactly which headline numbers moved.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.fleet.cluster import run_cluster_campaign
from repro.mitigations import bakeoff, mitigation_names
from repro.mitigations.bakeoff import BakeoffConfig, run_bakeoff

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

REGEN = "PYTHONPATH=src python tests/golden/regen_bakeoff.py"


def _fixture_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"bakeoff_{name}.json"


@pytest.fixture(scope="module")
def golden_run():
    """One full-sweep bake-off at the pinned scenario (shared: every
    comparison below reads from this single run), plus each
    mitigation's fleet campaign report."""
    sample = json.loads(_fixture_path("siloz").read_text())
    scenario = sample["scenario"]
    fleet_reports = {}

    def campaign(config, **kwargs):
        report = run_cluster_campaign(config, **kwargs)
        fleet_reports[config.mitigation] = report
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bakeoff, "run_cluster_campaign", campaign)
        report = run_bakeoff(BakeoffConfig(backend="vectorized", **scenario))
    return report, fleet_reports


@pytest.fixture(scope="module")
def golden_report(golden_run):
    return golden_run[0]


def test_every_mitigation_has_a_fixture():
    missing = [n for n in mitigation_names() if not _fixture_path(n).exists()]
    assert not missing, (
        f"no golden fixture for {missing}; generate with: {REGEN}"
    )


def test_fixtures_have_no_orphans():
    known = set(mitigation_names())
    orphans = [
        p.name
        for p in GOLDEN_DIR.glob("bakeoff_*.json")
        if p.stem.removeprefix("bakeoff_") not in known
    ]
    assert not orphans, (
        f"golden fixtures for unregistered mitigations: {orphans}; "
        f"delete them or re-register, then: {REGEN}"
    )


@pytest.mark.parametrize("name", mitigation_names())
def test_golden_digest_matches(name, golden_report):
    fixture = json.loads(_fixture_path(name).read_text())
    current = golden_report.mitigation_digest(name)
    entry = golden_report.entry(name)
    assert current == fixture["digest"], (
        f"\n{name!r} bake-off behaviour drifted from its golden fixture."
        f"\n  pinned digest:  {fixture['digest']}"
        f"\n  current digest: {current}"
        f"\n  pinned headline:  containment={fixture['containment_rate']} "
        f"victims={fixture['victim_flips']} loss={fixture['loss_fraction']}"
        f"\n  current headline: "
        f"containment={entry['containment']['containment_rate']} "
        f"victims={entry['containment']['victim_flips']} "
        f"loss={entry['capacity'].get('loss_fraction')}"
        f"\nIf this change is intentional, regenerate and commit:\n  {REGEN}"
    )


@pytest.mark.parametrize("name", mitigation_names())
def test_fleet_and_bakeoff_agree_on_containment(name, golden_run):
    # One host-containment verdict: the fleet summary and the bake-off
    # entry count the same hosts (idle hosts were never attacked).
    report, fleet_reports = golden_run
    assert (
        fleet_reports[name].summary["contained"]
        == report.entry(name)["containment"]["contained_hosts"]
    )


def test_golden_headline_security_story():
    """The fixtures themselves must keep telling the paper's story."""
    none = json.loads(_fixture_path("none").read_text())
    siloz = json.loads(_fixture_path("siloz").read_text())
    assert none["victim_flips"] > 0, "golden baseline no longer leaks"
    assert siloz["victim_flips"] == 0 and siloz["containment_rate"] == 1.0
    assert siloz["loss_fraction"] > none["loss_fraction"], (
        "isolation's capacity price disappeared from the goldens"
    )
