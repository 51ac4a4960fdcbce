"""Shared test fixtures: tier markers and the differential replay harness.

**Tiering.**  Every test belongs to ``tier1`` (the fast CI gate) unless
it is explicitly marked ``tier2`` (differential fuzzing, perf guards).
CI runs ``pytest -m tier1`` as the gate and ``pytest -m tier2`` as a
separate job; running pytest with no marker filter still runs
everything.

**Differential harness.**  The vectorized engine (:mod:`repro.engine`) is
defined to be bit-for-bit equivalent to the scalar reference path.
:func:`replay_program` drives one seeded program of mixed hammer
patterns, fault injections, idle time, scrubs, and guest reads/writes
against a chosen backend and returns a comparable transcript;
``tests/test_differential.py`` replays the same seed through both
backends and diffs the transcripts.
"""

from __future__ import annotations

import os
import random
import signal
import threading

import pytest

from repro.dram.disturbance import DisturbanceProfile
from repro.dram.geometry import DRAMGeometry
from repro.dram.module import SimulatedDram
from repro.dram.trr import TrrConfig
from repro.errors import UncorrectableError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan


def pytest_collection_modifyitems(config, items):
    """Auto-mark: any test not explicitly tier2 belongs to tier1."""
    for item in items:
        if "tier2" not in item.keywords:
            item.add_marker(pytest.mark.tier1)


#: Per-test wall-clock ceiling (seconds).  The chaos tests spawn and
#: kill real worker processes; a supervisor bug that hangs a join must
#: fail the one test, not wedge the whole CI job.  Implemented with
#: SIGALRM (no pytest-timeout dependency); override with
#: ``REPRO_TEST_TIMEOUT_S=0`` to disable (e.g. under a debugger).
GLOBAL_TEST_TIMEOUT_S = float(os.environ.get("REPRO_TEST_TIMEOUT_S", "300"))


@pytest.fixture(autouse=True)
def _global_test_timeout(request):
    """Fail any test that exceeds the global wall-clock ceiling."""
    if (
        GLOBAL_TEST_TIMEOUT_S <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        pytest.fail(
            f"{request.node.nodeid} exceeded the global "
            f"{GLOBAL_TEST_TIMEOUT_S:.0f}s test timeout",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, GLOBAL_TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Differential replay harness (vectorized engine vs scalar golden reference)
# ---------------------------------------------------------------------------

#: Geometry for differential replays: several subarrays per bank and
#: several banks, but small enough that 50 fuzz seeds stay cheap.
DIFF_GEOMETRY = dict(rows_per_bank=128, rows_per_subarray=16)


def _build_dram(backend: str, seed: int, rng: random.Random) -> SimulatedDram:
    geom = DRAMGeometry.small(**DIFF_GEOMETRY)
    profile = DisturbanceProfile.test_scale(
        threshold_mean=float(rng.choice((60, 90, 150, 400)))
    )
    trr = TrrConfig() if rng.random() < 0.5 else None
    return SimulatedDram(
        geom, profile=profile, trr_config=trr, seed=seed, backend=backend
    )


def replay_program(backend: str, seed: int) -> dict:
    """Run one seeded mixed program against *backend*; return the
    observable transcript (flips, ECC events, TRR activity, counters,
    stored corruption, clock) for differential comparison.

    The program itself is a pure function of *seed* — both backends see
    byte-identical operation streams; only the engine under them
    differs.
    """
    rng = random.Random(seed)
    dram = _build_dram(backend, seed, rng)
    geom = dram.geom
    uncorrectable: list[tuple] = []

    injector = None
    if rng.random() < 0.5:
        plan = FaultPlan.ce_storm(
            0,
            rng.randrange(geom.banks_per_socket),
            rng.randrange(geom.rows_per_bank),
            errors=rng.randrange(2, 8),
            words_per_row=geom.row_bytes * 8 // 64,
            start=1e-6,
            interval=10e-6,
            seed=seed,
        )
        injector = FaultInjector(dram, plan).attach()

    for _ in range(rng.randrange(3, 7)):
        bank = rng.randrange(geom.banks_per_socket)
        shape = rng.randrange(3)
        if shape == 0:  # double-sided pair
            base = rng.randrange(2, geom.rows_per_bank - 2)
            rows = [base - 1, base + 1]
        elif shape == 1:  # many-sided
            base = rng.randrange(geom.rows_per_bank - 12)
            rows = [base + 2 * k for k in range(rng.randrange(3, 7))]
        else:  # single-row storm
            rows = [rng.randrange(geom.rows_per_bank)]
        rounds = rng.randrange(200, 1200) // len(rows)
        dram.activate_batch(0, bank, rows * rounds)

        roll = rng.random()
        if roll < 0.3:
            dram.advance_time(rng.uniform(0.0, 0.01))
        elif roll < 0.5:
            dram.patrol_scrub()
        elif roll < 0.8:
            hpa = rng.randrange(geom.total_bytes // 64) * 64
            if rng.random() < 0.5:
                dram.write(hpa, bytes([rng.randrange(256)]) * 64)
            else:
                try:
                    dram.read(hpa, 64)
                except UncorrectableError as exc:
                    uncorrectable.append(("read-ue", hpa, str(exc)))

    dram.patrol_scrub()
    if injector is not None:
        injector.detach()

    return {
        "flips": list(dram.flips_log),
        "stored_flips": {k: sorted(v) for k, v in dram._flips.items()},
        "ecc": [
            (e.socket, e.bank, e.row, e.word, e.outcome, e.flipped_bits, e.when)
            for e in dram.ecc.stats.events
        ],
        "counters": vars(dram.counters).copy(),
        "trr": (
            None
            if dram.trr is None
            else (dram.trr.neighbor_refreshes, {
                key: (s._counters.copy(), s._acts_since_ref)
                for key, s in dram.trr._samplers.items()
            })
        ),
        "uncorrectable": uncorrectable,
        "injected": None if injector is None else [str(e) for e in injector.events],
        "clock": dram.clock,
        "suppressed": dram.flips_suppressed,
    }


def diff_transcripts(
    seed: int,
    scalar: dict,
    other: dict,
    labels: tuple[str, str] = ("scalar", "vectorized"),
) -> list[str]:
    """Human-readable field-level differences (empty = equivalent)."""
    a_name, b_name = labels
    problems = []
    for key in scalar:
        if scalar[key] != other[key]:
            problems.append(
                f"seed={seed}: field {key!r} diverged\n"
                f"  {a_name}: {scalar[key]!r}\n"
                f"  {b_name}: {other[key]!r}"
            )
    return problems
