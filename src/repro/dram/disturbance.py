"""Rowhammer / RowPress disturbance physics (paper §2.5).

The model follows the experimentally-established facts Siloz relies on:

- Activating an aggressor row leaks disturbance *pressure* into nearby
  rows, with weight decaying over row distance (Half-Double-style spill
  to distance 2).
- Keeping a row open for a long time (RowPress) adds pressure too.
- **Pressure never crosses a subarray boundary** — subarrays are
  electrically isolated (mFIT), which is the entire basis of Siloz.
- A victim flips bits once its accumulated pressure since its last
  refresh exceeds its per-row threshold; thresholds vary across rows and
  DIMMs (lognormal spread around a per-DIMM mean).
- Refreshing a row drains its pressure; an ACT also refreshes the
  activated row itself.

Thresholds are expressed in *equivalent single-aggressor activations*
(HC_first in the literature; ~50K for the weakest rows of modern DDR4).
Test-scale profiles use much smaller numbers so simulations stay fast —
the containment result is threshold-agnostic, as the paper stresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.dram.geometry import DRAMGeometry
from repro.errors import DramError

#: Pressure contributed by one aggressor ACT at each row distance.
DEFAULT_DISTANCE_WEIGHTS: tuple[float, ...] = (1.0, 0.2)

#: RowPress: cumulative aggressor-open time that equals one threshold's
#: worth of disturbance (RowPress flips bits after tens of ms of open
#: time within a refresh window).
ROWPRESS_SATURATION_S: float = 0.032


@dataclass(frozen=True)
class DisturbanceProfile:
    """Per-DIMM susceptibility parameters.

    ``threshold_mean`` is the mean HC_first; individual rows draw their
    own threshold from lognormal(mean, sigma).  ``flip_bits_mean`` is the
    expected number of bit flips per threshold crossing.
    """

    name: str = "default"
    threshold_mean: float = 50_000.0
    threshold_sigma: float = 0.15
    distance_weights: tuple[float, ...] = DEFAULT_DISTANCE_WEIGHTS
    #: Pressure per second of extra row-open time; None derives it from
    #: the threshold so ~ROWPRESS_SATURATION_S of open time within one
    #: refresh window crosses it (the RowPress regime).
    rowpress_rate: float | None = None
    flip_bits_mean: float = 1.5

    def __post_init__(self) -> None:
        if self.threshold_mean <= 0:
            raise DramError("threshold_mean must be positive")
        if not self.distance_weights or self.distance_weights[0] <= 0:
            raise DramError("distance_weights must start with a positive weight")

    @property
    def blast_radius(self) -> int:
        return len(self.distance_weights)

    @property
    def effective_rowpress_rate(self) -> float:
        if self.rowpress_rate is not None:
            return self.rowpress_rate
        return self.threshold_mean / ROWPRESS_SATURATION_S

    @classmethod
    def test_scale(cls, name: str = "test", threshold_mean: float = 64.0) -> "DisturbanceProfile":
        """Low-threshold profile so tests flip bits in a few dozen ACTs."""
        return cls(name=name, threshold_mean=threshold_mean)

    @classmethod
    def dimm_fleet(cls, count: int = 6, *, test_scale: bool = True) -> list["DisturbanceProfile"]:
        """Profiles for the paper's DIMMs A..F (Table 3): same physics,
        different susceptibility means."""
        base = 48.0 if test_scale else 45_000.0
        names = [chr(ord("A") + i) for i in range(count)]
        return [
            cls(
                name=names[i],
                threshold_mean=base * (1.0 + 0.25 * i),
                threshold_sigma=0.1 + 0.02 * i,
            )
            for i in range(count)
        ]


@dataclass(frozen=True)
class BitFlip:
    """One disturbance-induced bit flip, in media coordinates."""

    socket: int
    bank: int  # socket-local flat bank index
    row: int  # bank-local row
    bit: int  # bit index within the row (0 .. row_bytes*8-1)
    aggressor_row: int
    when: float  # simulation seconds


class DisturbanceModel:
    """Tracks per-victim pressure for one DRAM module and emits flips.

    One instance covers every bank; state is keyed by (socket, flat bank,
    row) and created lazily, so paper-scale geometries cost memory only
    proportional to rows actually touched.
    """

    def __init__(
        self,
        geom: DRAMGeometry,
        profile: DisturbanceProfile | None = None,
        *,
        seed: int = 0,
    ):
        self.geom = geom
        self.profile = profile or DisturbanceProfile()
        self._rng = random.Random(seed)
        self._pressure: dict[tuple[int, int, int], float] = {}
        self._threshold: dict[tuple[int, int, int], float] = {}
        self.flips: list[BitFlip] = []

    # ------------------------------------------------------------------

    def _victim_threshold(self, key: tuple[int, int, int]) -> float:
        got = self._threshold.get(key)
        if got is None:
            p = self.profile
            got = self._rng.lognormvariate(0.0, p.threshold_sigma) * p.threshold_mean
            self._threshold[key] = got
        return got

    def _neighbors(self, row: int) -> list[tuple[int, float]]:
        """(victim row, weight) pairs inside the aggressor's subarray.

        This is where the paper's central physical fact is enforced:
        candidates outside the aggressor's subarray are dropped.
        """
        geom = self.geom
        subarray = geom.subarray_of_row(row)
        out: list[tuple[int, float]] = []
        for distance, weight in enumerate(self.profile.distance_weights, start=1):
            for victim in (row - distance, row + distance):
                if not 0 <= victim < geom.rows_per_bank:
                    continue
                if geom.subarray_of_row(victim) != subarray:
                    continue  # electrically isolated (§2.5)
                out.append((victim, weight))
        return out

    def _add_pressure(
        self,
        socket: int,
        bank: int,
        aggressor_row: int,
        amount: float,
        when: float,
    ) -> list[BitFlip]:
        new_flips: list[BitFlip] = []
        for victim, weight in self._neighbors(aggressor_row):
            key = (socket, bank, victim)
            pressure = self._pressure.get(key, 0.0) + amount * weight
            threshold = self._victim_threshold(key)
            while pressure >= threshold:
                pressure -= threshold
                n_bits = max(1, round(self._rng.expovariate(1.0 / self.profile.flip_bits_mean)))
                for _ in range(n_bits):
                    bit = self._rng.randrange(self.geom.row_bytes * 8)
                    flip = BitFlip(
                        socket=socket,
                        bank=bank,
                        row=victim,
                        bit=bit,
                        aggressor_row=aggressor_row,
                        when=when,
                    )
                    new_flips.append(flip)
            self._pressure[key] = pressure
        self.flips.extend(new_flips)
        return new_flips

    # ------------------------------------------------------------------
    # Events fed by the DRAM module
    # ------------------------------------------------------------------

    def on_activate(self, socket: int, bank: int, row: int, when: float) -> list[BitFlip]:
        """An ACT hit (socket, bank, row); returns any fresh flips.

        The activated row itself is refreshed as a side effect (§2.5)."""
        self.geom.check_row(row)
        self._pressure.pop((socket, bank, row), None)
        return self._add_pressure(socket, bank, row, 1.0, when)

    def on_row_open_time(
        self, socket: int, bank: int, row: int, seconds: float, when: float
    ) -> list[BitFlip]:
        """RowPress: the row stayed open *seconds* beyond the nominal
        restore time."""
        if seconds < 0:
            raise DramError(f"open time must be non-negative, got {seconds}")
        amount = seconds * self.profile.effective_rowpress_rate
        if amount == 0.0:
            return []
        return self._add_pressure(socket, bank, row, amount, when)

    def on_refresh_row(self, socket: int, bank: int, row: int) -> None:
        """A refresh (periodic or TRR) drained this row's charge."""
        self._pressure.pop((socket, bank, row), None)

    def on_refresh_all(self) -> None:
        """Full refresh window elapsed: every row refreshed."""
        self._pressure.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def pressure_on(self, socket: int, bank: int, row: int) -> float:
        return self._pressure.get((socket, bank, row), 0.0)
