"""The vectorized (numpy) hot-path simulation engine.

The fast :class:`~repro.engine.backend.SimBackend`: it replays the
scalar reference's disturbance, TRR and refresh semantics with the
RNG-free bulk math of a whole activation batch moved into numpy, while
keeping the repo's golden equivalence contract — every flip set, TRR
decision, ECC event and health escalation is bit-identical to the scalar
reference.

One dispatch rule decides each batch.  The per-ACT loop
:func:`_run_per_act` is the scalar path's exact operation sequence
flattened into one loop, and it takes every batch that is empty,
shorter than :data:`MIN_VECTOR_BATCH`, fault-hooked or traced, issued
with TRR enabled, not an exact tiling of a short period, or whose span
would cross a full refresh window: hooks mutate mid-batch state,
traces interleave per ACT, TRR samples and refreshes per ACT, and
short vectors do not amortize the numpy set-up cost.  Every other
batch — a ``rows * rounds`` tiling of a short hammer pattern
(:func:`repro.attack.hammer.run_pattern`), the shape every attack
builds — runs the one vector kernel, :func:`_span_tiled`, which does
its victim math on the period only and folds all rounds with one small
tiled cumsum:

1. **Deterministic bulk math (numpy).**  The clock trajectory,
   per-victim pressure trajectories and threshold-crossing screening are
   RNG-free, so they vectorize.  Exactness holds because ``np.cumsum``
   on float64 is a sequential left fold (identical rounding to the
   scalar ``+=`` chain) and zero terms obey ``p + 0.0 == p``.  The
   refresh-window test is the scalar subtraction form
   ``clock - last_refresh >= window`` on the span's last ACT; the clock
   only grows, so that one test answers for every ACT of the span.

2. **Rare RNG-consuming events (exact scalar code).**  First-touch
   threshold draws are handled by running the per-ACT loop over the
   batch's first period, which touches every victim; threshold-crossing
   flip emission replays the scalar draw sequence in global
   ``(ACT index, neighbor order)`` order.  Crucially the pressure
   trajectory itself is RNG-free (the crossing loop subtracts the
   threshold deterministically; randomness only picks flipped bits), so
   crossings never invalidate the bulk math of other victims.

The per-bank tables are ``array('d')`` so the per-ACT loop indexes
plain Python floats; the tile kernel works on cached zero-copy
``np.frombuffer`` views of the same memory.  :func:`bulk_uniforms`
(the MT19937 state transplant behind
:func:`repro.workloads.trace.generate_trace_batch`) lives here too.
"""

from __future__ import annotations

import random
from array import array
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro import obs
from repro.dram.disturbance import BitFlip, DisturbanceModel, DisturbanceProfile
from repro.dram.geometry import DRAMGeometry
from repro.errors import DramError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (module -> engine)
    from repro.dram.module import SimulatedDram

#: Batches shorter than this run through the per-ACT loop (still
#: bit-identical, just not vectorized).  Patchable in tests to force the
#: vector path onto tiny batches.
MIN_VECTOR_BATCH: int = 96

#: How far into a batch to look for a repeat of its first row when
#: detecting ``rows * rounds`` tilings; hammer patterns are far shorter.
_PERIOD_WINDOW: int = 128

#: Relative slack used when screening the tile kernel's trajectory
#: bounds (entry pressure plus the span's added pressure, or the
#: self-reset gap bound) against thresholds.  A bound can differ from
#: the exact fold by accumulated rounding of order
#: ``n * eps * max|cumsum|``; the screen widens the threshold test by a
#: far larger slack so no exact crossing is ever missed, and every
#: screened victim is re-walked with exact scalar arithmetic anyway.
_SCREEN_SLACK: float = 1e-9

_EMPTY_F64 = np.empty(0, dtype=np.float64)

#: Per-geometry NaN row templates, keyed by rows_per_bank.  Building the
#: template costs O(rows) per call; every model instance (one per host in
#: fleet campaigns) would otherwise pay it in ``__init__``.  The template
#: is read-only by convention — consumers copy before mutating.
_NAN_TEMPLATES: dict[int, array] = {}

#: One bank's state: pressure and threshold ``array('d')`` tables (the
#: per-ACT loop's view) plus zero-copy float64 views of the same memory
#: (the numpy kernels' view).
BankTables = tuple[array, array, np.ndarray, np.ndarray]


def _nan_row_template(rows: int) -> array:
    """Shared all-NaN ``array('d')`` of length *rows* (copy before use)."""
    got = _NAN_TEMPLATES.get(rows)
    if got is None:
        got = array("d", [float("nan")]) * rows
        _NAN_TEMPLATES[rows] = got
    return got


def bulk_uniforms(rng: random.Random, n: int) -> np.ndarray:
    """Draw *n* doubles bit-identical to ``[rng.random() for _ in range(n)]``.

    Transplants the 624-word MT19937 state into a legacy numpy
    ``RandomState``, bulk-generates, then resynchronizes *rng* from the
    final numpy state so subsequent scalar draws continue the stream
    exactly where the bulk draw left it.
    """
    if n <= 0:
        return _EMPTY_F64
    version, internal, gauss_next = rng.getstate()
    rs = np.random.RandomState()
    rs.set_state(("MT19937", np.asarray(internal[:-1], dtype=np.uint32), internal[-1]))
    out = rs.random_sample(n)
    state: Any = rs.get_state()
    rng.setstate((version, tuple(state[1].tolist()) + (int(state[2]),), gauss_next))
    return out


class VectorizedDisturbanceModel(DisturbanceModel):
    """Array-backed disturbance state, RNG-compatible with the scalar model.

    Per touched (socket, bank) the model keeps two flat ``array('d')``
    tables indexed by bank-local row: accumulated pressure, and the
    lazily-drawn per-victim threshold (NaN = not drawn yet).  Thresholds
    are drawn through the same ``random.Random`` stream in the same
    first-touch order as the scalar model's dict, so both backends see
    identical threshold values and identical downstream flip randomness.
    Each bank also carries ``np.frombuffer`` views of its two tables,
    built once with the tables, for the tile kernel.  Every
    table update is in place, so hoisted references held by an
    in-flight batch stay valid.
    """

    def __init__(
        self,
        geom: DRAMGeometry,
        profile: DisturbanceProfile | None = None,
        *,
        seed: int = 0,
    ):
        super().__init__(geom, profile, seed=seed)
        rows = geom.rows_per_bank
        self._zeros = array("d", bytes(8 * rows))
        self._nans = _nan_row_template(rows)
        self._banks: dict[tuple[int, int], BankTables] = {}
        #: row -> tuple[(victim, weight), ...]; lazily filled memo of
        #: the subarray-clipped spill targets (identical to _neighbors).
        self._neighbor_table: list[tuple[tuple[int, float], ...] | None] = [None] * rows
        # Periodic-batch structures keyed on (subarray alignment, edge
        # anchor, shifted period rows): campaigns replay the same hammer
        # pattern at many base rows, so the victim tables and fold
        # templates are reused wholesale across banks and base rows.
        self._tile_cache: dict[tuple[int, int, bytes], dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Flat state
    # ------------------------------------------------------------------

    def _bank_tables(self, socket: int, bank: int) -> BankTables:
        key = (socket, bank)
        got = self._banks.get(key)
        if got is None:
            press = array("d", self._zeros)
            thresh = array("d", self._nans)
            got = (
                press,
                thresh,
                np.frombuffer(press, dtype=np.float64),
                np.frombuffer(thresh, dtype=np.float64),
            )
            self._banks[key] = got
        return got

    def _neighbor_tuple(self, row: int) -> tuple[tuple[int, float], ...]:
        nb = self._neighbor_table[row]
        if nb is None:
            nb = tuple(self._neighbors(row))
            self._neighbor_table[row] = nb
        return nb

    def _add_pressure_flat(
        self,
        socket: int,
        bank: int,
        aggressor_row: int,
        amount: float,
        when: float,
        press: array,
        thresh: array,
    ) -> list[BitFlip]:
        """Mirror of the scalar ``_add_pressure`` over the flat tables: the
        one spill loop of single ACTs and open time.  The RNG is drawn only
        at a first touch or a crossing, in the scalar model's order."""
        nb = self._neighbor_table[aggressor_row]
        if nb is None:
            nb = self._neighbor_tuple(aggressor_row)
        new_flips: list[BitFlip] = []
        for victim, weight in nb:
            pressure = press[victim] + amount * weight
            threshold = thresh[victim]
            if threshold != threshold:  # NaN: first touch, draw like scalar
                profile = self.profile
                threshold = (
                    self._rng.lognormvariate(0.0, profile.threshold_sigma)
                    * profile.threshold_mean
                )
                thresh[victim] = threshold
            if pressure >= threshold:
                rng = self._rng
                inv_bits_mean = 1.0 / self.profile.flip_bits_mean
                row_bits = self.geom.row_bytes * 8
                while pressure >= threshold:
                    pressure -= threshold
                    n_bits = max(1, round(rng.expovariate(inv_bits_mean)))
                    for _ in range(n_bits):
                        new_flips.append(
                            BitFlip(
                                socket=socket,
                                bank=bank,
                                row=victim,
                                bit=rng.randrange(row_bits),
                                aggressor_row=aggressor_row,
                                when=when,
                            )
                        )
            press[victim] = pressure
        if new_flips:
            self.flips.extend(new_flips)
        return new_flips

    # ------------------------------------------------------------------
    # DisturbanceModel interface (scalar-compatible overrides)
    # ------------------------------------------------------------------

    def on_activate(self, socket: int, bank: int, row: int, when: float) -> list[BitFlip]:
        """One ACT: self-refresh the aggressor, spill unit pressure
        (:meth:`SimulatedDram.activate`, the caller, checked *row*)."""
        tables = self._banks.get((socket, bank))
        if tables is None:
            tables = self._bank_tables(socket, bank)
        press = tables[0]
        press[row] = 0.0  # the ACT refreshes the activated row itself
        return self._add_pressure_flat(socket, bank, row, 1.0, when, press, tables[1])

    def on_row_open_time(
        self, socket: int, bank: int, row: int, seconds: float, when: float
    ) -> list[BitFlip]:
        """RowPress: extra pressure proportional to row-open time."""
        if seconds < 0:
            raise DramError(f"open time must be non-negative, got {seconds}")
        amount = seconds * self.profile.effective_rowpress_rate
        if amount == 0.0:
            return []
        press, thresh, _, _ = self._bank_tables(socket, bank)
        return self._add_pressure_flat(socket, bank, row, amount, when, press, thresh)

    def on_refresh_row(self, socket: int, bank: int, row: int) -> None:
        """Targeted (TRR) refresh: drop the row's accumulated pressure."""
        got = self._banks.get((socket, bank))
        if got is not None:
            got[0][row] = 0.0

    def on_refresh_all(self) -> None:
        """Full refresh window: clear every bank's pressure table."""
        zeros = self._zeros
        for tables in self._banks.values():
            tables[0][:] = zeros

    def pressure_on(self, socket: int, bank: int, row: int) -> float:
        """Accumulated pressure on one row (test observability)."""
        got = self._banks.get((socket, bank))
        return got[0][row] if got is not None else 0.0


def _run_per_act(
    dram: "SimulatedDram",
    dist: VectorizedDisturbanceModel,
    socket: int,
    bank: int,
    rows: list[int],
) -> list[BitFlip]:
    """Issue *rows* to (socket, bank) one ACT at a time.

    The scalar ``activate`` loop with its call frames inlined: every
    per-ACT side effect happens in the same order, and fault hooks
    still fire per activation, so injected faults land mid-batch
    exactly as they would mid-loop.
    """
    geom = dram.geom
    check_row = geom.check_row
    for row in rows:
        check_row(row)

    counters = dram.counters
    hooks = dram._hooks
    trr = dram.trr
    act_s = dram.act_seconds
    window = dram.refresh_window
    clock = dram.clock
    last_refresh = dram._last_full_refresh
    bank_key = (socket, bank)
    repairs_all = dram._repairs
    repairs = repairs_all.get(bank_key)
    press, thresh, _, _ = dist._bank_tables(socket, bank)
    table = dist._neighbor_table
    rng = dist._rng
    profile = dist.profile
    sigma = profile.threshold_sigma
    mean = profile.threshold_mean
    inv_bits_mean = 1.0 / profile.flip_bits_mean
    row_bits = geom.row_bytes * 8
    flips_model = dist.flips
    apply_flips = dram._apply_internal_flips
    out: list[BitFlip] = []
    # Observability: one module-attribute read per batch, then a local
    # bool per ACT — the zero-cost-when-disabled contract of repro.obs.
    # Event payloads and ordering mirror the scalar path exactly, so
    # traces are backend-independent (tests/test_obs.py asserts this).
    trace_on = obs.ENABLED
    emit = obs.emit

    if trr is not None:
        sampler = trr._sampler(socket, bank)
        trr_random = trr._rng.random
        s_counters = sampler._counters
        cfg = trr.config
        sampled_after = cfg.sampled_acts_after_ref
        sample_prob = cfg.sample_prob
        slots = cfg.slots
        acts_since_ref = sampler._acts_since_ref
        trr_every = dram.trr_ref_every
        bank_acts = dram._acts_by_bank.get(bank_key, 0)

    for row in rows:
        if hooks:
            counters.activations += 1
        clock += act_s
        if clock - last_refresh >= window:
            dist.on_refresh_all()
            last_refresh = clock
            counters.refresh_windows += 1
            if trace_on:
                emit(obs.RefreshWindowEvent(when=clock))
        if hooks:
            dram.clock = clock
            dram._last_full_refresh = last_refresh
            for hook in hooks:
                hook.on_activate(dram, socket, bank, row)
            # A hook may advance time or plant a late repair; re-sync.
            clock = dram.clock
            last_refresh = dram._last_full_refresh
            repairs = repairs_all.get(bank_key)
        internal = repairs.get(row, row) if repairs else row

        if trr is not None:
            # Inlined TrrSampler.observe_maybe (same RNG short-circuit).
            acts_since_ref += 1
            if acts_since_ref <= sampled_after or trr_random() < sample_prob:
                c = s_counters.get(internal)
                if c is not None:
                    s_counters[internal] = c + 1
                elif len(s_counters) < slots:
                    s_counters[internal] = 1
                else:
                    for tracked in list(s_counters):
                        v = s_counters[tracked] - 1
                        if v <= 0:
                            del s_counters[tracked]
                        else:
                            s_counters[tracked] = v
                if trace_on:
                    emit(
                        obs.TrrSampleEvent(
                            socket=socket, bank=bank, row=internal, when=clock
                        )
                    )

        # Inlined disturbance.on_activate: self-refresh, then spill.
        press[internal] = 0.0
        nb = table[internal]
        if nb is None:
            nb = dist._neighbor_tuple(internal)
        new_flips = None
        for victim, weight in nb:
            pressure = press[victim] + weight  # amount == 1.0
            threshold = thresh[victim]
            if threshold != threshold:  # NaN: draw in scalar first-touch order
                threshold = rng.lognormvariate(0.0, sigma) * mean
                thresh[victim] = threshold
            if pressure >= threshold:
                if new_flips is None:
                    new_flips = []
                while pressure >= threshold:
                    pressure -= threshold
                    n_bits = max(1, round(rng.expovariate(inv_bits_mean)))
                    for _ in range(n_bits):
                        new_flips.append(
                            BitFlip(
                                socket=socket,
                                bank=bank,
                                row=victim,
                                bit=rng.randrange(row_bits),
                                aggressor_row=internal,
                                when=clock,
                            )
                        )
            press[victim] = pressure
        if new_flips:
            flips_model.extend(new_flips)
            dram.clock = clock
            out.extend(apply_flips(socket, bank, new_flips))

        if trr is not None:
            bank_acts += 1
            if bank_acts % trr_every == 0:
                counters.trr_refs += 1
                sampler._acts_since_ref = acts_since_ref
                for victim in trr.on_ref(socket, bank, when=clock):
                    press[victim] = 0.0
                acts_since_ref = sampler._acts_since_ref  # 0 after take_targets

    dram.clock = clock
    dram._last_full_refresh = last_refresh
    if not hooks:
        counters.activations += len(rows)
    if trr is not None:
        sampler._acts_since_ref = acts_since_ref
        dram._acts_by_bank[bank_key] = bank_acts
    return out


def _find_period(arr: np.ndarray) -> int:
    """Smallest ``L`` with ``arr == tile(arr[:L])``, or 0 when none.

    Only periods up to :data:`_PERIOD_WINDOW` are considered (hammer
    patterns are short) and only true tilings qualify: ``n % L == 0``
    plus the full self-overlap check ``arr[L:] == arr[:-L]``.
    """
    n = int(arr.size)
    if n < 2:
        return 0
    win = min(n // 2, _PERIOD_WINDOW)
    cand = np.flatnonzero(arr[1 : win + 1] == arr[0]) + 1
    for L in cand.tolist():
        if n % L == 0 and bool((arr[L:] == arr[:-L]).all()):
            return int(L)
    return 0


def run_activation_batch_vectorized(
    dram: "SimulatedDram", socket: int, bank: int, rows: Sequence[int]
) -> list[BitFlip]:
    """Issue *rows* as one batch of ACTs through the vectorized engine.

    Requires the module's disturbance model to be a
    :class:`VectorizedDisturbanceModel`; callers go through
    :meth:`SimulatedDram.activate_batch`.  Produces bit-identical state
    and results to the scalar backend (enforced by
    ``tests/test_differential.py``).
    """
    dist = dram.disturbance
    if not isinstance(dist, VectorizedDisturbanceModel):
        raise DramError("run_activation_batch_vectorized needs the vectorized backend")
    rows = rows if isinstance(rows, list) else list(rows)
    if (
        not rows
        or len(rows) < MIN_VECTOR_BATCH
        or dram._hooks
        or obs.ENABLED
        or dram.trr is not None
    ):
        # Fault hooks mutate mid-batch state, tracing must interleave
        # events per ACT, TRR samples and refreshes per ACT, and short
        # batches don't amortize the numpy set-up; the per-ACT loop is
        # exact in every case.
        return _run_per_act(dram, dist, socket, bank, rows)

    try:
        rows_arr = np.asarray(rows, dtype=np.int64)
    except (OverflowError, TypeError):
        return _run_per_act(dram, dist, socket, bank, rows)
    period = _find_period(rows_arr)
    if not period:
        return _run_per_act(dram, dist, socket, bank, rows)

    # The batch tiles its first period, so that period holds every row
    # and its first bad row is the batch's first bad row.
    geom = dram.geom
    base_media = rows_arr[:period]
    minrow = int(base_media.min())
    maxrow = int(base_media.max())
    if minrow < 0 or maxrow >= geom.rows_per_bank:
        bad = (base_media < 0) | (base_media >= geom.rows_per_bank)
        geom.check_row(int(base_media[np.argmax(bad)]))  # raises the canonical error

    # Media -> internal rows (vendor repairs); static without hooks.
    repairs = dram._repairs.get((socket, bank))
    if repairs:
        media_distinct, base_inv = np.unique(base_media, return_inverse=True)
        internal_of = np.asarray(
            [repairs.get(int(r), int(r)) for r in media_distinct],
            dtype=np.int64,
        )
        base_internal = internal_of[base_inv]
        iminrow = int(base_internal.min())
        imaxrow = int(base_internal.max())
    else:
        base_internal = base_media
        iminrow, imaxrow = minrow, maxrow
    rounds = len(rows) // period
    # The victim structure is translation-invariant: neighbor tables
    # depend only on row deltas, the subarray alignment of the rows,
    # and bank-edge clamping.  Key entries on the shifted pattern so
    # a pattern swept across base rows reuses one entry.
    radius = dist.profile.blast_radius
    lo, hi = iminrow - radius, imaxrow + radius
    if 0 <= lo and hi < geom.rows_per_bank and lo // geom.rows_per_subarray == hi // geom.rows_per_subarray:
        # Whole blast span interior to one subarray: no victim is
        # dropped at a subarray or bank edge, so the entry is fully
        # shift-invariant and every base row shares one key.
        align, anchor = -1, -1
    else:
        align = iminrow % geom.rows_per_subarray
        anchor = iminrow if (lo < 0 or hi >= geom.rows_per_bank) else -1
    key = (align, anchor, (base_internal - iminrow).tobytes())
    entry = dist._tile_cache.get(key)
    if entry is None:
        distinct, base_idx = np.unique(base_internal, return_inverse=True)
        entry = _build_tile_entry(dist, base_internal, base_idx, distinct, iminrow)
        if len(dist._tile_cache) >= 128:
            dist._tile_cache.clear()
        dist._tile_cache[key] = entry
    shift = iminrow - entry["minrow0"]

    out: list[BitFlip] = []
    if entry["V"]:
        _, _, _, thresh_v = dist._bank_tables(socket, bank)
        vr = entry["vrows_arr"] + shift if shift else entry["vrows_arr"]
        if bool(np.isnan(thresh_v[vr]).any()):
            # First-touch threshold draws: run one whole period through
            # the exact per-ACT loop (every aggressor — hence every
            # victim — occurs in it, so every victim threshold gets
            # drawn), then vectorize the other rounds.
            out.extend(_run_per_act(dram, dist, socket, bank, rows[:period]))
            rounds -= 1
            if not rounds:
                return out
    clk = _span_clock(dram, period * rounds)
    if clk[-1] - dram._last_full_refresh >= dram.refresh_window:
        # The span crosses a refresh window.  The clock only grows, so
        # the last ACT's test is the whole span's; the per-ACT loop
        # places the window exactly.
        out.extend(_run_per_act(dram, dist, socket, bank, rows[-period * rounds :]))
        return out
    out.extend(_span_tiled(dram, dist, socket, bank, entry, rounds, shift, clk))
    return out


def _span_clock(dram: "SimulatedDram", n: int) -> np.ndarray:
    """clk[t] = clock during ACT t; cumsum is a sequential left fold, so
    every partial sum matches the scalar ``clock += act_s`` chain bit
    for bit."""
    clk = np.empty(n + 1, dtype=np.float64)
    clk[0] = dram.clock
    clk[1:] = dram.act_seconds
    np.cumsum(clk, out=clk)
    return clk[1:]


def _emit_events(
    dram: "SimulatedDram",
    dist: VectorizedDisturbanceModel,
    socket: int,
    bank: int,
    events: list[tuple[int, int, int, int]],
    clk: np.ndarray,
    period_rows: list[int],
    vrows: list[int],
) -> list[BitFlip]:
    """Replay threshold crossings in global (ACT, neighbor-order) order,
    consuming the disturbance RNG exactly like the scalar path.  ACT
    ``t`` activates ``period_rows[t % len(period_rows)]``."""
    events.sort()
    L = len(period_rows)
    rng = dist._rng
    profile = dist.profile
    inv_bits_mean = 1.0 / profile.flip_bits_mean
    row_bits = dram.geom.row_bytes * 8
    flips_out: list[BitFlip] = []
    for t, _order, j, spills in events:
        when = float(clk[t])
        new_flips = []
        for _ in range(spills):
            n_bits = max(1, round(rng.expovariate(inv_bits_mean)))
            for _ in range(n_bits):
                new_flips.append(
                    BitFlip(
                        socket=socket,
                        bank=bank,
                        row=vrows[j],
                        bit=rng.randrange(row_bits),
                        aggressor_row=period_rows[t % L],
                        when=when,
                    )
                )
        dist.flips.extend(new_flips)
        dram.clock = when
        flips_out.extend(dram._apply_internal_flips(socket, bank, new_flips))
    return flips_out


def _build_tile_entry(
    dist: VectorizedDisturbanceModel,
    base_internal: np.ndarray,
    base_idx: np.ndarray,
    distinct: np.ndarray,
    minrow0: int,
) -> dict[str, Any]:
    """Precompute everything about one period pattern that is state-free.

    The entry depends only on the period's internal rows and the model's
    static neighbor table, so it is reused across every batch replaying
    the same pattern — on any bank and (via a row shift) at any base row
    with the same subarray alignment: victim tables, the compressed
    per-period touch matrix, self-reset gap statistics and tail folds.
    Per-call state (pressures, thresholds, clock, TRR phase) stays out.
    """
    L = int(base_internal.size)
    A = int(distinct.size)
    nbs = [dist._neighbor_tuple(int(r)) for r in distinct.tolist()]
    vrows: list[int] = []
    vindex: dict[int, int] = {}
    for nb in nbs:
        for v, _w in nb:
            if v not in vindex:
                vindex[v] = len(vrows)
                vrows.append(v)
    V = len(vrows)
    entry: dict[str, Any] = {
        "L": L,
        "A": A,
        "V": V,
        "minrow0": minrow0,
        "base_idx": base_idx,
        "base_list": base_internal.tolist(),
        "nbs": nbs,
        "vrows": vrows,
        "vindex": vindex,
        "nonvictims": [int(r) for r in distinct.tolist() if int(r) not in vindex],
        "order_lut": None,  # built lazily on the first screened victim
        "pads": {},  # rounds -> tiled fold template
    }
    if not V:
        return entry
    wlut = np.zeros((A, V), dtype=np.float64)
    for ai, nb in enumerate(nbs):
        for v, w in nb:
            wlut[ai, vindex[v]] = w
    base_W = wlut[base_idx]  # (L, V)
    counts = np.bincount(base_idx, minlength=A).astype(np.float64)
    total_add_base = counts @ wlut  # per-round added pressure (bound only)
    wmax = wlut.max(axis=0)
    self_ai = np.searchsorted(distinct, vrows_arr := np.asarray(vrows, dtype=np.int64))
    has_self = (self_ai < A) & (distinct[np.minimum(self_ai, A - 1)] == vrows_arr)

    # Per self-activating victim: (j, first ACT, largest reset-free gap,
    # max weight, tail weights after its last own ACT in a period).
    self_data: list[tuple[int, int, int, float, list[float]]] = []
    for j in np.nonzero(has_self)[0].tolist():
        pos = np.flatnonzero(base_idx == int(self_ai[j]))
        q0 = int(pos[0])
        gap_in = int(np.diff(pos).max()) if pos.size > 1 else 0
        gap_max = max(gap_in, L - int(pos[-1]) + q0)
        tail = [w for w in base_W[int(pos[-1]) + 1 :, j].tolist() if w != 0.0]
        self_data.append((j, q0, gap_max, float(wmax[j]), tail))

    # Compressed per-period touch matrix: each victim's nonzero weights
    # in time order, right-padded with exact-no-op zeros.
    nzj, nzt = np.nonzero(base_W.T)
    cnt = np.bincount(nzj, minlength=V)
    P = int(cnt.max()) if nzj.size else 0
    comp = np.zeros((V, max(P, 1)), dtype=np.float64)
    if P:
        offs = np.cumsum(cnt) - cnt
        rank = np.arange(nzj.size, dtype=np.int64) - offs[nzj]
        comp[nzj, rank] = base_W[nzt, nzj]
    entry.update(
        base_W=base_W,
        vrows_arr=vrows_arr,
        total_add_base=total_add_base,
        max_total_base=float(total_add_base.max(initial=0.0)),
        self_ai=self_ai,
        has_self=has_self,
        self_data=self_data,
        comp=comp,
        P=P,
    )
    return entry


def _tile_pad_template(entry: dict[str, Any], rounds: int) -> np.ndarray:
    """Fold template for *rounds*: ``[seed, comp, comp, ...]`` per row."""
    pads: dict[int, np.ndarray] = entry["pads"]
    tmpl = pads.get(rounds)
    if tmpl is None:
        V: int = entry["V"]
        P: int = entry["P"]
        tmpl = np.zeros((V, 1 + P * rounds), dtype=np.float64)
        if P:
            tmpl[:, 1:] = np.tile(entry["comp"], rounds)
        if len(pads) >= 8:
            pads.clear()
        pads[rounds] = tmpl
    return tmpl


def _span_tiled(
    dram: "SimulatedDram",
    dist: VectorizedDisturbanceModel,
    socket: int,
    bank: int,
    entry: dict[str, Any],
    rounds: int,
    shift: int,
    clk: np.ndarray,
) -> list[BitFlip]:
    """Periodic-batch fast path: per-ACT math on the period only.

    Exact finals come from one small cumsum over each victim's compact
    per-period touch sequence tiled ``rounds`` times (zero pads are
    rounding no-ops), seeded with the victim's entry pressure.  Victims
    reset by their own activations fold only the tail after the last
    self-ACT, and victims screened as possible threshold crossers are
    re-walked with exact scalar arithmetic.  *clk* is the span's clock
    (:func:`_span_clock`); the caller has checked that the span crosses
    no refresh window and that TRR is off, so no pressure resets other
    than the victims' own ACTs occur in it.
    """
    L: int = entry["L"]
    counters = dram.counters
    _, _, press, thresh = dist._bank_tables(socket, bank)
    V: int = entry["V"]
    flips_out: list[BitFlip] = []
    if V:
        vrows_arr: np.ndarray = entry["vrows_arr"]
        if shift:
            vrows_arr = vrows_arr + shift
        p0 = press[vrows_arr]  # fancy indexing gathers a copy
        T = thresh[vrows_arr]  # finite: first-touch period drew them all

        # Screening bounds (upper bounds on the whole trajectory — resets
        # and crossings only ever lower it).  Pure victims: entry
        # pressure plus everything the span can add.  Self-activating
        # victims: their own ACTs reset them, so the largest reset-free
        # gap (in ACTs, each adding at most the victim's max weight)
        # bounds the peak much tighter.
        self_data: list[tuple[int, int, int, float, list[float]]] = entry["self_data"]
        bound = p0 + entry["total_add_base"] * rounds
        for j, q0, gap_max, wm, _tail in self_data:
            b = max(p0[j] + q0 * wm, gap_max * wm)
            if b < bound[j]:
                bound[j] = b
        slack = _SCREEN_SLACK * (
            entry["max_total_base"] * rounds + float(p0.max(initial=0.0)) + 1.0
        )
        suspect_js: list[int] = np.nonzero(bound >= T - slack)[0].tolist()

        # Exact finals for every victim at once: seed the cached tiled
        # touch template with p0, one sequential-fold cumsum.
        pad = _tile_pad_template(entry, rounds).copy()
        pad[:, 0] = p0
        np.cumsum(pad, axis=1, out=pad)
        finals = pad[:, -1]

        # Self-activating victims: reset-before semantics zero them at
        # their last own ACT; only the last period's tail contributes.
        suspect_set = set(suspect_js)
        for j, _q0, _gap, _wm, tail in self_data:
            if j in suspect_set:
                continue
            p = 0.0
            for w in tail:
                p += w
            finals[j] = p

        # Authoritative exact walk for screened victims; crossings never
        # invalidate other victims' bulk math.
        events: list[tuple[int, int, int, int]] = []  # (t, order, j, spills)
        if suspect_js:
            base_W: np.ndarray = entry["base_W"]
            base_idx: np.ndarray = entry["base_idx"]
            order_lut = entry["order_lut"]
            if order_lut is None:
                A: int = entry["A"]
                vindex: dict[int, int] = entry["vindex"]
                order_lut = np.zeros((A, V), dtype=np.int64)
                for ai, nb in enumerate(entry["nbs"]):
                    for no_, (v, _w) in enumerate(nb):
                        order_lut[ai, vindex[v]] = no_
                entry["order_lut"] = order_lut
            has_self: np.ndarray = entry["has_self"]
            self_ai: np.ndarray = entry["self_ai"]
            for j in suspect_js:
                col = base_W[:, j].tolist()
                ocol = order_lut[base_idx, j].tolist()
                own = (base_idx == int(self_ai[j])).tolist() if has_self[j] else None
                p = float(p0[j])
                threshold = float(T[j])
                for r in range(rounds):
                    toff = r * L
                    for ti in range(L):
                        if own is not None and own[ti]:
                            p = 0.0
                        w = col[ti]
                        if w != 0.0:
                            p = p + w
                            if p >= threshold:
                                spills = 0
                                while p >= threshold:
                                    p -= threshold
                                    spills += 1
                                events.append((toff + ti, ocol[ti], j, spills))
                finals[j] = p
        if events:
            vrows: list[int] = entry["vrows"]
            period_rows: list[int] = entry["base_list"]
            if shift:
                vrows = [v + shift for v in vrows]
                period_rows = [r + shift for r in period_rows]
            flips_out.extend(
                _emit_events(dram, dist, socket, bank, events, clk, period_rows, vrows)
            )

        press[vrows_arr] = finals
    for r in entry["nonvictims"]:
        press[r + shift] = 0.0
    counters.activations += L * rounds
    dram.clock = float(clk[-1])
    return flips_out
