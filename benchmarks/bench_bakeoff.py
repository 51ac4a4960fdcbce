"""Bake-off trajectory point: rival mitigations on identical fleets.

Runs the ``none`` / ``para`` / ``siloz`` bake-off twice — scalar and
vectorized backends — asserts the reports are **bit-identical** (the
differential-engine contract extended through the mitigation layer),
asserts the headline security result holds (Siloz contains the seed-7
attack that corrupts a victim VM on the unmitigated baseline), then
records wall times, the backend speedup, and the comparison metrics to
``BENCH_bakeoff.json`` at the repo root, with a ``runner`` record (CPU
count, python and numpy versions, commit) naming who measured them.
The two backends alternate (scalar, vectorized, scalar, ...) after one
warm-up of each; the speedup is the median of the per-pair speedups,
recorded with every pair and their interquartile range.

``check_trajectory.py --key bakeoff_campaign`` gates the recorded
speedup run-over-run; ``--field siloz_loss_pct --direction down`` and
``--field para_refreshes_per_kact --direction down`` gate the
deterministic comparison metrics (they must never silently grow).
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics

from conftest import runner_record, time_paired

from repro.mitigations.bakeoff import BakeoffConfig, run_bakeoff

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_bakeoff.json"

#: The sweep: unmitigated baseline, probabilistic refresh, Siloz.
MITIGATIONS = ("none", "para", "siloz")
#: Seed where the baseline reliably leaks victim flips at BUDGET.
SEED = 7
HOSTS = 4
VMS = 8
BUDGET = 150
WORKERS = 2
#: Timed scalar/vectorized pairs; a scalar bake-off takes ~16 s on a
#: 2-vCPU runner, so three pairs keep the bench near a minute and a half.
PAIRS = 3

_RESULTS: dict = {
    "bench": "bakeoff",
    "note": "none/para/siloz bake-off, scalar vs vectorized backend; "
    "reports must be bit-identical and siloz must contain the seed-7 "
    "attack that leaks on the baseline",
    "runner": runner_record(),
}


def _record(key: str, payload: dict) -> None:
    _RESULTS[key] = payload
    BENCH_JSON.write_text(json.dumps(_RESULTS, indent=2) + "\n")


def _banner(title: str) -> str:
    rule = "=" * len(title)
    return f"\n{rule}\n{title}\n{rule}"


def _bakeoff(backend: str):
    config = BakeoffConfig(
        mitigations=MITIGATIONS,
        hosts=HOSTS,
        vms=VMS,
        seed=SEED,
        budget=BUDGET,
        backend=backend,
        workers=WORKERS,
    )
    return run_bakeoff(config)


def test_bakeoff_campaign() -> None:
    timing = time_paired(
        lambda: _bakeoff("scalar"),
        lambda: _bakeoff("vectorized"),
        pairs=PAIRS,
        warmup=1,
    )
    scalar, vector = timing.ref_result, timing.cand_result

    assert scalar.digest() == vector.digest(), (
        "scalar and vectorized bake-off reports diverged"
    )
    assert scalar.clean, "a bake-off campaign had unplanned failures"

    none_c = scalar.entry("none")["containment"]
    para_c = scalar.entry("para")["containment"]
    siloz_c = scalar.entry("siloz")["containment"]
    # The headline: the baseline attacker corrupts a victim VM, Siloz
    # (subarray-group isolation + guard rows) fully contains it, and
    # PARA — probabilistic, not spatial — lands in between.
    assert none_c["victim_flips"] > 0, (
        f"seed {SEED} baseline no longer leaks victim flips at budget "
        f"{BUDGET}; the bake-off lost its discriminating scenario"
    )
    assert siloz_c["containment_rate"] == 1.0 and siloz_c["victim_flips"] == 0, (
        f"siloz failed containment: {siloz_c}"
    )
    assert para_c["victim_flips"] <= none_c["victim_flips"], (
        f"para ({para_c['victim_flips']} victim flips) worse than the "
        f"unmitigated baseline ({none_c['victim_flips']})"
    )

    siloz_loss_pct = 100.0 * scalar.entry("siloz")["capacity"]["loss_fraction"]
    para_rpk = scalar.entry("para")["overhead"]["refreshes_per_kact"]
    scalar_s = statistics.median(timing.ref_seconds)
    vector_s = statistics.median(timing.cand_seconds)
    speedup = timing.median
    print(_banner(
        f"Bake-off: {'/'.join(MITIGATIONS)} on {HOSTS} hosts, "
        f"scalar vs vectorized"
    ))
    print(scalar.render_table())
    print(
        f"scalar {scalar_s * 1e3:8.1f} ms   vectorized {vector_s * 1e3:8.1f} ms"
        f" (medians)   speedup {speedup:.2f}x median of {len(timing.ratios)} "
        f"alternating pairs, IQR {timing.iqr:.2f}   identical reports: yes"
    )
    _record(
        "bakeoff_campaign",
        {
            "scalar_seconds": round(scalar_s, 6),
            "vectorized_seconds": round(vector_s, 6),
            "speedup": round(speedup, 3),
            "speedup_iqr": round(timing.iqr, 3),
            "pair_speedups": [round(r, 3) for r in timing.ratios],
            "cpu_count": os.cpu_count() or 1,
            "identical_results": True,
            "hosts": HOSTS,
            "vms": VMS,
            "seed": SEED,
            "budget": BUDGET,
            "digest": scalar.digest(),
            "siloz_loss_pct": round(siloz_loss_pct, 4),
            "para_refreshes_per_kact": para_rpk,
            "containment_rate": {
                "none": none_c["containment_rate"],
                "para": para_c["containment_rate"],
                "siloz": siloz_c["containment_rate"],
            },
            "victim_flips": {
                "none": none_c["victim_flips"],
                "para": para_c["victim_flips"],
                "siloz": siloz_c["victim_flips"],
            },
        },
    )


if __name__ == "__main__":
    test_bakeoff_campaign()
