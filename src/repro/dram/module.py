"""Bit-level simulated server DRAM (paper §2.3-§2.5).

:class:`SimulatedDram` is the device under test for all of the security
experiments: it stores data, counts activations, runs the TRR sampler,
applies the Rowhammer/RowPress disturbance model, and exposes ECC/patrol
scrub.  Storage is sparse — only rows ever written or flipped take
memory — so the paper-scale geometry (384 GiB) is as cheap to model as
the test geometry when the working set is small.

Two coordinate systems appear here:

- *media* rows: what the memory controller (and thus all HPAs) address;
- *internal* rows: where the cells physically sit after vendor row
  repairs (§6).  Disturbance pressure lives in internal space, because
  that is where electrical adjacency is real; flips are mapped back to
  the media row whose data they corrupt.  An inter-subarray repair
  therefore *dynamically* breaks containment in this model, exactly the
  failure mode Siloz offlines pages to avoid.

Mirroring/inversion/scrambling are subarray-preserving bijections for
power-of-2 subarray sizes (proved by
:func:`repro.dram.transforms.subarray_isolation_preserved` and its
tests), so the dynamic simulation runs them as identity; the analysis
path in :mod:`repro.dram.transforms` covers the non-power-of-2 cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.dram.disturbance import BitFlip, DisturbanceModel, DisturbanceProfile
from repro.dram.ecc import WORD_BITS, EccEngine, EccEvent, EccOutcome
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import SkylakeMapping
from repro.dram.media import MediaAddress
from repro.dram.trr import Trr, TrrConfig
from repro.engine.backend import SimBackend
from repro.errors import DramError, UncorrectableError
from repro.units import CACHE_LINE, MS


@dataclass
class DramCounters:
    """Aggregate activity counters for one module."""

    activations: int = 0
    reads: int = 0
    writes: int = 0
    refresh_windows: int = 0
    trr_refs: int = 0


class DramHook:
    """Observer interface for module-level events (fault injection).

    Register an instance with :meth:`SimulatedDram.register_hook` to be
    called on activations, clock advances, and writes.  The base class
    implements every callback as a no-op so subclasses override only
    what they need.  Hooks may mutate the module (e.g. plant bit errors
    via :meth:`SimulatedDram.inject_bit_error`); they run synchronously
    inside the triggering operation, so an injected fault is visible to
    the access that tripped the hook.
    """

    def on_activate(self, dram: "SimulatedDram", socket: int, bank: int, row: int) -> None:
        """One ACT was issued (clock already advanced)."""

    def on_clock(self, dram: "SimulatedDram") -> None:
        """Simulated time advanced without an access (idle time)."""

    def on_write(self, dram: "SimulatedDram", hpa: int, length: int) -> None:
        """Data was stored at [hpa, hpa+length) (stores already applied)."""


class SimulatedDram:
    """A full server DRAM complement behind one mapping.

    Parameters
    ----------
    geom, mapping:
        Hardware shape; *mapping* defaults to the proportional test
        mapping for small geometries and the Skylake shape otherwise.
    profile:
        Disturbance susceptibility (per-DIMM in the fleet benches).
    trr_config:
        TRR sampler parameters; pass ``None`` to disable TRR entirely
        (useful to isolate the disturbance model in tests).
    act_seconds:
        Simulated wall-clock cost per activation; drives the 64 ms
        refresh-window bookkeeping.
    trr_ref_every:
        A bank receives a TRR refresh opportunity every N of its ACTs
        (the per-bank share of tREFI ticks).
    backend:
        :class:`~repro.engine.backend.SimBackend` (or its string value)
        selecting the activation hot path: ``SCALAR`` is the golden
        reference, ``VECTORIZED`` routes :meth:`activate_batch` through
        the numpy :mod:`repro.engine.vector` kernels.  Both produce
        bit-identical results (see ``tests/test_differential.py``).
    """

    def __init__(
        self,
        geom: DRAMGeometry,
        mapping: SkylakeMapping | None = None,
        *,
        profile: DisturbanceProfile | None = None,
        trr_config: TrrConfig | None = TrrConfig(),
        seed: int = 0,
        act_seconds: float = 60e-9,
        trr_ref_every: int = 64,
        refresh_window: float = 64 * MS,
        data_dependent_flips: bool = False,
        backend: SimBackend | str = SimBackend.SCALAR,
    ):
        self.geom = geom
        if mapping is None:
            if geom.rows_per_bank < 16 * 2 * 16 * 2:
                mapping = SkylakeMapping.for_small_geometry(geom)
            else:
                mapping = SkylakeMapping(geom)
        if mapping.geom is not geom:
            raise DramError("mapping and module must share a geometry")
        self.mapping = mapping
        self.backend = SimBackend.parse(backend)
        if self.backend is SimBackend.VECTORIZED:
            # Imported lazily: repro.engine.vector itself imports the
            # disturbance layer, so a top-level import would cycle.
            from repro.engine.vector import VectorizedDisturbanceModel

            self.disturbance: DisturbanceModel = VectorizedDisturbanceModel(
                geom, profile, seed=seed
            )
        else:
            self.disturbance = DisturbanceModel(geom, profile, seed=seed)
        self.trr = Trr(geom, trr_config, seed=seed + 1) if trr_config else None
        self.ecc = EccEngine()
        self.counters = DramCounters()
        self.clock = 0.0
        self.act_seconds = act_seconds
        self.trr_ref_every = trr_ref_every
        self.refresh_window = refresh_window
        self._last_full_refresh = 0.0
        self._data: dict[tuple[int, int, int], bytearray] = {}
        self._flips: dict[tuple[int, int, int], set[int]] = {}
        self._acts_by_bank: dict[tuple[int, int], int] = {}
        # True-/anti-cell modelling: a disturbance can only *discharge*
        # a cell, so a bit flips only when its stored value differs from
        # the cell's resting value.  Off by default (the containment
        # results are polarity-agnostic); see flips_suppressed.
        self.data_dependent_flips = data_dependent_flips
        self.flips_suppressed = 0
        # Row repairs: (socket, bank) -> {defective media row: spare row},
        # plus the reverse index for mapping victims back to media rows.
        self._repairs: dict[tuple[int, int], dict[int, int]] = {}
        self._spare_owner: dict[tuple[int, int], dict[int, int]] = {}
        self.flips_log: list[BitFlip] = []
        self._hooks: list[DramHook] = []

    # ------------------------------------------------------------------
    # Hooks (fault injection, monitoring)
    # ------------------------------------------------------------------

    def register_hook(self, hook: DramHook) -> None:
        """Attach a :class:`DramHook`; it is called on every activation,
        clock advance, and write until unregistered."""
        if hook in self._hooks:
            raise DramError("hook already registered")
        self._hooks.append(hook)

    def unregister_hook(self, hook: DramHook) -> None:
        """Detach a previously registered hook (no-op if absent)."""
        if hook in self._hooks:
            self._hooks.remove(hook)

    def inject_bit_error(self, socket: int, bank: int, row: int, bit: int) -> None:
        """Fault-injection entry point: toggle one stored bit, exactly as
        a defective cell would corrupt it.  The error is visible to the
        next read/scrub of the row (and, if alone in its 64-bit word,
        correctable by ECC)."""
        self.geom.check_row(row)
        if not 0 <= bit < self.geom.row_bytes * 8:
            raise DramError(f"bit {bit} outside row of {self.geom.row_bytes} bytes")
        self._toggle_bit(socket, bank, row, bit)

    def bit_at(self, socket: int, bank: int, row: int, bit: int) -> int:
        """Current effective value of one cell (stored data XOR flip) —
        what a raw (ECC-off) read of that bit would sense."""
        self.geom.check_row(row)
        return self._effective_bit(socket, bank, row, bit)

    # ------------------------------------------------------------------
    # Row repairs
    # ------------------------------------------------------------------

    def add_repair(self, socket: int, bank: int, defective_row: int, spare_row: int) -> None:
        """Vendor-style repair: media *defective_row* now lives in the
        cells of internal *spare_row* (§6)."""
        self.geom.check_row(defective_row)
        self.geom.check_row(spare_row)
        key = (socket, bank)
        bank_repairs = self._repairs.setdefault(key, {})
        if defective_row in bank_repairs:
            raise DramError(f"row {defective_row} already repaired in bank {key}")
        bank_repairs[defective_row] = spare_row
        self._spare_owner.setdefault(key, {})[spare_row] = defective_row

    def _to_internal(self, socket: int, bank: int, row: int) -> int:
        repairs = self._repairs.get((socket, bank))
        return repairs.get(row, row) if repairs else row

    def _to_media_victim(self, socket: int, bank: int, internal_row: int) -> int | None:
        """Media row whose data lives in *internal_row*, or None when the
        internal row's cells are disconnected (a repaired-away row)."""
        key = (socket, bank)
        owner = self._spare_owner.get(key, {}).get(internal_row)
        if owner is not None:
            return owner
        if internal_row in self._repairs.get(key, {}):
            return None  # cells abandoned by the repair
        return internal_row

    # ------------------------------------------------------------------
    # Activation path
    # ------------------------------------------------------------------

    def activate(
        self, socket: int, bank: int, row: int, *, open_seconds: float = 0.0
    ) -> list[BitFlip]:
        """Issue one ACT to (socket, socket-flat bank, media row).

        Returns any disturbance flips caused (already applied to the
        stored data and appended to :attr:`flips_log`).  A bad row or a
        negative or NaN *open_seconds* is refused before any state
        changes.  The one single-ACT path on both backends."""
        if not 0 <= row < self.geom.rows_per_bank:
            self.geom.check_row(row)  # raises the canonical error
        if not open_seconds >= 0.0:
            raise DramError(f"open time must be non-negative, got {open_seconds}")
        self.counters.activations += 1
        self.clock += self.act_seconds
        if self.clock - self._last_full_refresh >= self.refresh_window:
            self._full_refresh()
        if self._hooks:
            for hook in self._hooks:
                hook.on_activate(self, socket, bank, row)
        repairs = self._repairs.get((socket, bank)) if self._repairs else None
        internal = repairs.get(row, row) if repairs else row

        trr = self.trr
        if trr is not None:
            trr.on_activate(socket, bank, internal, when=self.clock)
        raw = self.disturbance.on_activate(socket, bank, internal, self.clock)
        if open_seconds:
            self.clock += open_seconds
            raw += self.disturbance.on_row_open_time(
                socket, bank, internal, open_seconds, self.clock
            )
        flips = self._apply_internal_flips(socket, bank, raw) if raw else raw

        if trr is not None:
            acts = self._acts_by_bank.get((socket, bank), 0) + 1
            self._acts_by_bank[(socket, bank)] = acts
            if acts % self.trr_ref_every == 0:
                self.counters.trr_refs += 1
                for victim in trr.on_ref(socket, bank, when=self.clock):
                    self.disturbance.on_refresh_row(socket, bank, victim)
        return flips

    def activate_batch(self, socket: int, bank: int, rows) -> list[BitFlip]:
        """Issue a vector of ACTs to one (socket, bank).

        Semantically identical to ``for row in rows: activate(...)`` —
        on the vectorized backend the batch runs through
        :func:`repro.engine.vector.run_activation_batch_vectorized`; on
        the scalar backend it is per-access :meth:`activate`.  Returns
        the concatenated disturbance flips."""
        rows = rows if isinstance(rows, list) else list(rows)
        if obs.ENABLED:
            obs.emit(
                obs.ActBatchEvent(
                    socket=socket, bank=bank, rows=len(rows), when=self.clock
                )
            )
        if self.backend is SimBackend.VECTORIZED:
            from repro.engine.vector import run_activation_batch_vectorized

            return run_activation_batch_vectorized(self, socket, bank, rows)
        flips: list[BitFlip] = []
        for row in rows:
            flips.extend(self.activate(socket, bank, row))
        return flips

    @staticmethod
    def _resting_value(socket: int, bank: int, row: int, bit: int) -> int:
        """Deterministic true-/anti-cell polarity: the value a cell
        decays toward (true cells rest at 0, anti cells at 1)."""
        h = (socket * 1009 + bank * 9176 + row * 31 + bit) * 2654435761
        return (h >> 13) & 1

    def _effective_bit(self, socket: int, bank: int, row: int, bit: int) -> int:
        stored = self._data.get((socket, bank, row))
        value = (stored[bit // 8] >> (bit % 8)) & 1 if stored else 0
        if bit in self._flips.get((socket, bank, row), ()):
            value ^= 1
        return value

    def _apply_internal_flips(
        self, socket: int, bank: int, raw: list[BitFlip]
    ) -> list[BitFlip]:
        out: list[BitFlip] = []
        # A bank without repairs maps every internal row to itself, so
        # the raw flips are already media flips (BitFlip is frozen).
        repaired = (socket, bank) in self._repairs
        for flip in raw:
            media_row = (
                self._to_media_victim(socket, bank, flip.row) if repaired else flip.row
            )
            if media_row is None:
                continue
            if self.data_dependent_flips:
                resting = self._resting_value(socket, bank, media_row, flip.bit)
                if self._effective_bit(socket, bank, media_row, flip.bit) == resting:
                    self.flips_suppressed += 1
                    continue  # cell already at rest: nothing to lose
            media_flip = (
                flip
                if media_row == flip.row
                else BitFlip(
                    socket=socket,
                    bank=bank,
                    row=media_row,
                    bit=flip.bit,
                    aggressor_row=flip.aggressor_row,
                    when=flip.when,
                )
            )
            self._toggle_bit(socket, bank, media_row, flip.bit)
            self.flips_log.append(media_flip)
            out.append(media_flip)
        if obs.ENABLED and out:
            for f in out:
                obs.emit(
                    obs.FlipEvent(
                        socket=f.socket,
                        bank=f.bank,
                        row=f.row,
                        bit=f.bit,
                        aggressor_row=f.aggressor_row,
                        when=f.when,
                    )
                )
        return out

    def _toggle_bit(self, socket: int, bank: int, row: int, bit: int) -> None:
        key = (socket, bank, row)
        flips = self._flips.setdefault(key, set())
        if bit in flips:
            flips.remove(bit)
        else:
            flips.add(bit)
        if not flips:
            del self._flips[key]

    def _full_refresh(self) -> None:
        """A full refresh window elapsed (the caller tested the clock)."""
        self.disturbance.on_refresh_all()
        self._last_full_refresh = self.clock
        self.counters.refresh_windows += 1
        if obs.ENABLED:
            obs.emit(obs.RefreshWindowEvent(when=self.clock))

    def acts_until_trr_ref(self, socket: int, bank: int) -> int | None:
        """ACTs remaining until this bank's next TRR REF opportunity, or
        None when TRR is disabled.  Attackers can estimate this on real
        hardware by timing REF-induced stalls — the synchronization step
        of Blacksmith-class attacks."""
        if self.trr is None:
            return None
        acts = self._acts_by_bank.get((socket, bank), 0)
        return self.trr_ref_every - (acts % self.trr_ref_every)

    def advance_time(self, seconds: float) -> None:
        """Let simulated wall-clock pass (idle time, other work)."""
        if not seconds >= 0:  # NaN too: the clock only grows
            raise DramError("cannot advance time backwards")
        self.clock += seconds
        if self.clock - self._last_full_refresh >= self.refresh_window:
            self._full_refresh()
        for hook in self._hooks:
            hook.on_clock(self)

    # ------------------------------------------------------------------
    # Data path (by host physical address, through the mapping)
    # ------------------------------------------------------------------

    def _effective_row(self, socket: int, bank: int, row: int) -> bytearray:
        """Stored bytes with current flips applied (what a read senses):
        :meth:`read_region`'s one sense per touched row.  :meth:`read`
        senses only the bytes of each piece instead."""
        data = bytearray(self._data.get((socket, bank, row), bytes(self.geom.row_bytes)))
        for bit in self._flips.get((socket, bank, row), ()):
            data[bit // 8] ^= 1 << (bit % 8)
        return data

    def _lines(self, hpa: int, length: int) -> list[tuple[int, int, int, int, int, int]]:
        """Split [hpa, hpa+length) into per-cache-line pieces, decoded to
        ``(socket, socket_bank, row, col, offset, take)`` tuples.

        Spans longer than one line decode every line start in one
        ``decode_media_batch`` call.  Shorter spans (one piece, or two
        when they cross a line — the page-table entry accesses of
        placement) decode each line's first byte once through the
        mapping's LRU (``decode_flat``) and add the in-line offset to
        ``col``; out-of-range addresses raise
        :class:`MappingError` and are never cached.  Both branches agree
        exactly with ``decode`` (``tests/test_engine_vector.py`` compares
        them)."""
        if length <= 0:
            raise DramError(f"length must be positive, got {length}")
        if length > CACHE_LINE:
            import numpy as np

            first = hpa // CACHE_LINE
            n = (hpa + length - 1) // CACHE_LINE - first + 1
            bounds = np.arange(first, first + n + 1, dtype=np.int64) * CACHE_LINE
            starts = bounds[:-1].copy()
            starts[0] = hpa
            ends = bounds[1:]
            ends[-1] = hpa + length
            socket, socket_bank, _channel, row, col = self.mapping.decode_media_batch(
                starts
            )
            return list(
                zip(
                    socket.tolist(),
                    socket_bank.tolist(),
                    row.tolist(),
                    col.tolist(),
                    (starts - hpa).tolist(),
                    (ends - starts).tolist(),
                )
            )
        decode_flat = self.mapping.decode_flat
        line_off = hpa % CACHE_LINE
        line = hpa - line_off
        socket, bank, _channel, row, col = decode_flat(line)
        if line_off + length <= CACHE_LINE:
            return [(socket, bank, row, col + line_off, 0, length)]
        take = CACHE_LINE - line_off
        head = (socket, bank, row, col + line_off, 0, take)
        socket, bank, _channel, row, col = decode_flat(line + CACHE_LINE)
        return [head, (socket, bank, row, col, take, length - take)]

    def write(self, hpa: int, data: bytes) -> None:
        """Write bytes at *hpa*; clears any flips in the written bits."""
        self.counters.writes += 1
        length = len(data)
        for socket, bank, row, col, offset, take in self._lines(hpa, length):
            self.activate(socket, bank, row)
            key = (socket, bank, row)
            store = self._data.get(key)
            if store is None:
                store = self._data[key] = bytearray(self.geom.row_bytes)
            store[col : col + take] = data if take == length else data[offset : offset + take]
            flips = self._flips.get(key)
            if flips:
                low, high = col * 8, (col + take) * 8
                for bit in [b for b in flips if low <= b < high]:
                    flips.remove(bit)
                if not flips:
                    del self._flips[key]
        for hook in self._hooks:
            hook.on_write(self, hpa, length)

    def read(self, hpa: int, length: int, *, ecc: bool = True) -> bytes:
        """Read bytes at *hpa*.

        With ECC on, single-bit-per-word errors in the touched words are
        corrected in the returned data (and logged); a double-bit word
        raises :class:`UncorrectableError` (machine check, §2.5).

        Each piece senses only its own bytes: the stored slice (zeros if
        the row was never written) with the flips inside it applied —
        the same bytes as slicing :meth:`_effective_row`, without
        copying the whole row."""
        self.counters.reads += 1
        out = bytearray(length)
        for socket, bank, row, col, offset, take in self._lines(hpa, length):
            self.activate(socket, bank, row)
            key = (socket, bank, row)
            stored = self._data.get(key)
            flips = self._flips.get(key)
            if flips:
                chunk = stored[col : col + take] if stored is not None else bytearray(take)
                low, high = col * 8, (col + take) * 8
                for bit in flips:
                    if low <= bit < high:
                        chunk[bit // 8 - col] ^= 1 << (bit % 8)
                if ecc:
                    chunk = self._ecc_correct_chunk(socket, bank, row, col, take, chunk)
            else:
                chunk = stored[col : col + take] if stored is not None else bytes(take)
            if take == length:  # one piece: the whole read
                return bytes(chunk)
            out[offset : offset + take] = chunk
        return bytes(out)

    def read_region(self, hpa: int, length: int, *, ecc: bool = True) -> bytes:
        """Bulk read of ``[hpa, hpa+length)`` with open-row semantics.

        Decodes the whole span in one vectorized pass, activates each
        touched row once (a burst reader keeps a row open across its
        columns instead of re-activating per cache line), senses it
        once, and runs a single ECC sweep per row over every touched
        word.  Returned bytes and healed bits match per-line
        :meth:`read` on the same span; only the ACT/clock accounting
        differs (one ACT per touched row), identically on both
        backends.  Bulk consumers — migration snapshots, remediation
        copies — use this instead of :meth:`read`."""
        self.counters.reads += 1
        out = bytearray(length)
        sensed: dict[tuple[int, int, int], bytearray] = {}
        pieces: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
        for socket, bank, row, col, offset, take in self._lines(hpa, length):
            key = (socket, bank, row)
            data = sensed.get(key)
            if data is None:
                self.activate(socket, bank, row)
                data = sensed[key] = self._effective_row(socket, bank, row)
                pieces[key] = []
            out[offset : offset + take] = data[col : col + take]
            pieces[key].append((col, take, offset))
        if not ecc:
            return bytes(out)
        for (socket, bank, row), spans in pieces.items():
            flips = self._flips.get((socket, bank, row))
            if not flips:
                continue
            touched = {
                b
                for col, take, _off in spans
                for b in flips
                if col * 8 <= b < (col + take) * 8
            }
            if not touched:
                continue
            events = self.ecc.check_row_bits(socket, bank, row, touched, self.clock)
            for event in events:
                if event.outcome is EccOutcome.UNCORRECTABLE:
                    byte = event.word * (WORD_BITS // 8)
                    col = next(
                        (c for c, take, _off in spans if c <= byte < c + take),
                        spans[0][0],
                    )
                    media = MediaAddress.from_socket_bank(
                        self.geom, socket, bank, row, col
                    )
                    raise UncorrectableError(
                        f"double-bit error in row {row} word {event.word}",
                        address=self.mapping.encode(media),
                    )
            for bit in self.ecc.correctable_bits(touched):
                byte = bit // 8
                for col, take, off in spans:
                    if col <= byte < col + take:
                        out[off + (byte - col)] ^= 1 << (bit % 8)
                        break
        return bytes(out)

    def _ecc_correct_chunk(
        self, socket: int, bank: int, row: int, col: int, take: int, chunk: bytearray
    ) -> bytearray:
        flips = self._flips.get((socket, bank, row))
        if not flips:
            return chunk
        low, high = col * 8, (col + take) * 8
        touched = {b for b in flips if low <= b < high}
        if not touched:
            return chunk
        events = self.ecc.check_row_bits(socket, bank, row, touched, self.clock)
        for event in events:
            if event.outcome is EccOutcome.UNCORRECTABLE:
                media = MediaAddress.from_socket_bank(self.geom, socket, bank, row, col)
                raise UncorrectableError(
                    f"double-bit error in row {row} word {event.word}",
                    address=self.mapping.encode(media),
                )
        chunk = bytearray(chunk)
        for bit in self.ecc.correctable_bits(touched):
            chunk[bit // 8 - col] ^= 1 << (bit % 8)
        return chunk

    # ------------------------------------------------------------------
    # Patrol scrub (§7.1's 24 h scrub pass)
    # ------------------------------------------------------------------

    def patrol_scrub(self) -> list[EccEvent]:
        """Scan every row carrying flips: heal correctable bits in place,
        log uncorrectable words.  Returns all events from the pass."""
        events: list[EccEvent] = []
        for (socket, bank, row), flips in sorted(self._flips.items()):
            events.extend(
                self.ecc.check_row_bits(socket, bank, row, set(flips), self.clock)
            )
            # Healing = rewriting the corrected value; the sparse store
            # already holds the written data, so dropping the flip is the
            # whole repair.
            for bit in self.ecc.correctable_bits(set(flips)):
                flips.discard(bit)
        self._flips = {k: v for k, v in self._flips.items() if v}
        return events

    def flip_bits_at(self, socket: int, bank: int, row: int) -> set[int]:
        return set(self._flips.get((socket, bank, row), ()))
