"""Differential harness: the fast engines vs the scalar golden reference.

The ``SimBackend.VECTORIZED`` fast path (:mod:`repro.engine`) is only
admissible because it is *observationally identical* to the scalar
path: same flip sets, same TRR decisions, same ECC events, same
health-monitor escalations, same clocks and counters.  Its private
per-ACT fallback (hooked, traced and short batches) is held to the
same contract: fault plans and short batches reach it here, tracing
in ``tests/test_obs.py``.  These tests
enforce that contract on three levels:

1. seeded mixed programs (hammer shapes + fault plans + scrubs + guest
   I/O) through :func:`conftest.replay_program`, compared pairwise
   across both backends — a handful of seeds in tier1, ~50 seeds
   in the tier2 fuzz job (every failure names the seed to replay);
2. the end-to-end CE-storm scenario, whose transcript/replay key must
   be backend-independent;
3. the attack stack (fuzzer campaigns) and the memory controllers,
   whose flat-decode fast path must match the MediaAddress reference.
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import diff_transcripts, replay_program

from repro.units import MiB


BACKENDS = ("scalar", "vectorized")


def _assert_equivalent(seed: int) -> None:
    transcripts = {backend: replay_program(backend, seed) for backend in BACKENDS}
    problems = []
    for i, a in enumerate(BACKENDS):
        for b in BACKENDS[i + 1 :]:
            problems += diff_transcripts(
                seed, transcripts[a], transcripts[b], labels=(a, b)
            )
    assert not problems, (
        f"backends diverged; replay with replay_program(<backend>, {seed}):\n"
        + "\n".join(problems)
    )


class TestMixedPrograms:
    @pytest.mark.parametrize("seed", range(8))
    def test_equivalent_small_seeds(self, seed):
        _assert_equivalent(seed)

    def test_flips_actually_happen(self):
        # Guard against vacuous equivalence: at least one of the tier1
        # seeds must produce disturbance flips on both backends.
        assert any(
            replay_program("scalar", seed)["flips"] for seed in range(8)
        ), "differential seeds never flip a bit; raise pressure"


@pytest.mark.tier2
class TestDifferentialFuzz:
    """Satellite: ~50-seed fuzz sweep (separate CI job)."""

    @pytest.mark.parametrize("seed", range(100, 150))
    def test_equivalent_fuzz_seed(self, seed):
        _assert_equivalent(seed)


class TestScenarioTranscripts:
    @pytest.mark.parametrize("seed", (0, 3))
    def test_ce_storm_replay_key_backend_independent(self, seed):
        from repro.faults.scenario import run_ce_storm_scenario

        runs = {b: run_ce_storm_scenario(seed=seed, backend=b) for b in BACKENDS}
        scalar = runs["scalar"]
        for backend in BACKENDS[1:]:
            other = runs[backend]
            assert scalar.transcript == other.transcript, f"seed={seed} {backend}"
            assert scalar.replay_key() == other.replay_key(), backend
        assert all(r.success for r in runs.values())


class TestAttackStack:
    def test_fuzzer_campaign_identical(self):
        from repro.attack import attack_from_vm
        from repro.core import SilozHypervisor
        from repro.hv import Machine, VmSpec

        outcomes = {}
        logs = {}
        for backend in BACKENDS:
            hv = SilozHypervisor.boot(Machine.small(seed=7, backend=backend))
            attacker = hv.create_vm(VmSpec(name="attacker", memory_bytes=2 * MiB))
            hv.create_vm(VmSpec(name="victim", memory_bytes=2 * MiB))
            outcomes[backend] = attack_from_vm(
                hv, attacker, seed=7, pattern_budget=12
            )
            logs[backend] = hv.machine.dram.flips_log
        for backend in BACKENDS[1:]:
            assert logs["scalar"] == logs[backend], backend
            assert outcomes["scalar"].summary() == outcomes[backend].summary()
            assert (
                outcomes["scalar"].report.activations
                == outcomes[backend].report.activations
            )

    def test_blast_radius_identical(self):
        from repro.attack.blaster import measure_blast_radius
        from repro.dram.disturbance import DisturbanceProfile
        from repro.dram.geometry import DRAMGeometry
        from repro.dram.module import SimulatedDram

        geom = DRAMGeometry.small(rows_per_bank=128, rows_per_subarray=16)
        profiles = {}
        for backend in BACKENDS:
            dram = SimulatedDram(
                geom,
                profile=DisturbanceProfile.test_scale(threshold_mean=80.0),
                trr_config=None,
                seed=9,
                backend=backend,
            )
            profiles[backend] = measure_blast_radius(
                dram, activations=4000
            ).flips_by_distance
        for backend in BACKENDS[1:]:
            assert profiles["scalar"] == profiles[backend], backend
        assert profiles["scalar"], "blast measurement produced no flips"


class TestMitigationDifferential:
    """Every registered mitigation must keep the bit-identity contract:
    one micro fleet campaign per mitigation, same merged
    :class:`BakeoffReport` digest on both backends."""

    def _micro(self, mitigation: str, backend: str, seed: int = 0):
        from repro.mitigations.bakeoff import BakeoffConfig, run_bakeoff

        return run_bakeoff(
            BakeoffConfig(
                mitigations=(mitigation,),
                hosts=2,
                vms=4,
                seed=seed,
                budget=2,
                backend=backend,
            )
        )

    @pytest.mark.parametrize("mitigation", (
        "none", "siloz", "para", "catt", "domain-buddy", "guard-rows",
    ))
    def test_bakeoff_digest_backend_independent(self, mitigation):
        reports = {b: self._micro(mitigation, b) for b in BACKENDS}
        for backend in BACKENDS[1:]:
            assert (
                reports["scalar"].mitigation_digest(mitigation)
                == reports[backend].mitigation_digest(mitigation)
            ), f"{mitigation} diverged on {backend}"
            assert reports["scalar"].digest() == reports[backend].digest()


@pytest.mark.tier2
class TestMitigationDifferentialFuzz:
    """Satellite: seed-swept mitigation bit-identity (separate CI job).

    Each seed exercises one mitigation (round-robin) on scalar vs
    vectorized."""

    @pytest.mark.parametrize("seed", range(200, 250))
    def test_bakeoff_digest_fuzz_seed(self, seed):
        from repro.mitigations import mitigation_names
        from repro.mitigations.bakeoff import BakeoffConfig, run_bakeoff

        names = mitigation_names()
        mitigation = names[seed % len(names)]
        digests = {}
        for backend in ("scalar", "vectorized"):
            report = run_bakeoff(
                BakeoffConfig(
                    mitigations=(mitigation,),
                    hosts=2,
                    vms=4,
                    seed=seed,
                    budget=3,
                    backend=backend,
                )
            )
            digests[backend] = report.digest()
        assert digests["scalar"] == digests["vectorized"], (
            f"{mitigation} diverged at seed {seed}"
        )


class TestControllerDecode:
    """The controllers' flat-decode fast path vs the MediaAddress path."""

    @pytest.mark.parametrize("cls_name", ("MemoryController", "FrFcfsController"))
    def test_trace_results_identical(self, cls_name):
        import random

        from repro.dram.geometry import DRAMGeometry
        from repro.dram.mapping import SkylakeMapping
        from repro.memctrl.controller import MemoryAccess, MemoryController
        from repro.memctrl.frfcfs import FrFcfsController

        cls = {"MemoryController": MemoryController, "FrFcfsController": FrFcfsController}[cls_name]
        geom = DRAMGeometry.small()
        mapping = SkylakeMapping.for_small_geometry(geom)
        rng = random.Random(11)
        trace = [
            MemoryAccess(
                hpa=rng.randrange(geom.total_bytes // 64) * 64,
                cpu_gap_ns=rng.choice((0.0, 2.0, 10.0)),
            )
            for _ in range(800)
        ]
        fast = cls(mapping)
        assert fast._decode_flat is not None
        slow = cls(mapping)
        slow._decode_flat = None  # force the MediaAddress reference path
        a, b = fast.run_trace(list(trace)), slow.run_trace(list(trace))
        assert vars(a) == vars(b)


@pytest.fixture(scope="module")
def workload_env():
    from repro.hv import BaselineHypervisor, Machine, VmSpec
    from repro.units import KiB
    from repro.workloads import GpaTranslator

    hv = BaselineHypervisor(Machine.small(), backing_page_bytes=64 * KiB)
    vm = hv.create_vm(VmSpec(name="diff", memory_bytes=2 * MiB))
    return hv, vm, GpaTranslator(vm)


class TestWorkloadStreams:
    """Scalar trace generator vs the one-transplant numpy batch: the
    streams (addresses, kinds, quantized-exponential gaps) must be bit
    for bit the same — same MT19937 draws, same IEEE ops."""

    @pytest.mark.parametrize("workload", ("redis-a", "terasort", "mlc-reads", "mysql"))
    @pytest.mark.parametrize("seed", (0, 3))
    def test_batch_stream_bit_identical(self, workload_env, workload, seed):
        from repro.memctrl.controller import AccessKind
        from repro.workloads import generate_trace, generate_trace_batch, suite

        _, _, translator = workload_env
        spec = suite(workload, footprint_bytes=translator.limit)
        objs = list(
            generate_trace(
                spec, translator, accesses=600, seed=seed, home_socket=1
            )
        )
        batch = generate_trace_batch(
            spec, translator, accesses=600, seed=seed, home_socket=1
        )
        assert [a.hpa for a in objs] == batch.hpa.tolist()
        assert [a.kind is AccessKind.WRITE for a in objs] == batch.write.tolist()
        # Float equality must be exact, not approx: both paths index the
        # same gap table and scale with the same rounding.
        assert [a.cpu_gap_ns for a in objs] == batch.cpu_gap_ns.tolist()
        assert batch.home_socket.tolist() == [1] * 600
        rebuilt = batch.to_accesses()
        assert [vars(a) for a in objs] == [vars(a) for a in rebuilt]


class TestMemctrlBackends:
    """Controller timing across both backends: identical
    TraceResult (every counter and every float) per configuration."""

    def _trace(self, workload_env, accesses=700):
        from repro.workloads import generate_trace, suite

        _, vm, translator = workload_env
        spec = suite("redis-a", footprint_bytes=translator.limit)
        return list(
            generate_trace(spec, translator, accesses=accesses, seed=5)
        )

    @pytest.mark.parametrize(
        "kwargs",
        (
            {},
            {"page_policy": "closed"},
            {"max_outstanding": 1},
        ),
        ids=("open", "closed", "mlp1"),
    )
    def test_controller_backend_identical(self, workload_env, kwargs):
        from repro.memctrl import MemoryController

        hv, _, _ = workload_env
        trace = self._trace(workload_env)
        results = {
            b: MemoryController(
                hv.machine.mapping, backend=b, **kwargs
            ).run_trace(list(trace))
            for b in BACKENDS
        }
        for backend in BACKENDS[1:]:
            assert vars(results["scalar"]) == vars(results[backend]), backend

    @pytest.mark.parametrize("window", (1, 7, 16))
    def test_frfcfs_backend_identical(self, workload_env, window):
        from repro.memctrl import FrFcfsController

        hv, _, _ = workload_env
        trace = self._trace(workload_env)
        results = {
            b: FrFcfsController(
                hv.machine.mapping, window=window, backend=b
            ).run_trace(list(trace))
            for b in BACKENDS
        }
        for backend in BACKENDS[1:]:
            assert vars(results["scalar"]) == vars(results[backend]), backend

    def test_run_batch_equals_run_trace(self, workload_env):
        from repro.memctrl import MemoryController
        from repro.memctrl.pipeline import AccessBatch

        hv, _, _ = workload_env
        trace = self._trace(workload_env)
        batch = AccessBatch.from_accesses(trace)
        for backend in BACKENDS:
            mc = MemoryController(hv.machine.mapping, backend=backend)
            assert vars(mc.run_batch(batch)) == vars(
                MemoryController(hv.machine.mapping, backend=backend).run_trace(
                    list(trace)
                )
            ), backend


class TestEndToEndBackends:
    """The whole workload→memctrl pipeline through run_in_vm: a machine
    on the vectorized backend must reproduce the scalar machine's
    WorkloadResult exactly (same VM placement, same trace, same time)."""

    @pytest.mark.parametrize("workload", ("redis-a", "mlc-reads"))
    def test_run_in_vm_backend_identical(self, workload):
        from repro.hv import BaselineHypervisor, Machine, VmSpec
        from repro.units import KiB
        from repro.workloads import run_in_vm

        results = {}
        for backend in BACKENDS:
            hv = BaselineHypervisor(
                Machine.small(backend=backend), backing_page_bytes=64 * KiB
            )
            vm = hv.create_vm(VmSpec(name="e2e", memory_bytes=2 * MiB))
            results[backend] = run_in_vm(hv, vm, workload, accesses=900, trial=2)
        for backend in BACKENDS[1:]:
            assert vars(results["scalar"].trace) == vars(
                results[backend].trace
            ), backend



def _siloz_host(backend: str, seed: int):
    from repro.core import SilozHypervisor
    from repro.hv import Machine

    return SilozHypervisor.boot(Machine.small(seed=seed, backend=backend))


def _vm_spec():
    from repro.hv import VmSpec

    return VmSpec(name="g", memory_bytes=2 * MiB)


class TestPageTableWalks:
    """The one radix-table class, replayed on both backends: the EPT, a
    guest page table (nodes in guest RAM, walked through the EPT) and an
    IOMMU domain issue the same ACTs at the same clock and leave the
    same table bytes.  The ACT pins fix each walk's DRAM traffic; the
    decode count keeps the walks' sub-line entry accesses on the decode
    LRU (one decode per distinct line)."""

    def test_table_builds_replay_identically(self, monkeypatch):
        from repro.dram.mapping import SkylakeMapping
        from repro.dram.module import SimulatedDram
        from repro.guest import GuestOS
        from repro.units import CACHE_LINE

        decode, lines = SkylakeMapping._decode_flat, SimulatedDram._lines
        decodes, sub_line = [0], set()

        def counting_decode(mapping, hpa):
            decodes[0] += 1
            return decode(mapping, hpa)

        def recording_lines(dram, hpa, length):
            if length <= CACHE_LINE:
                first, last = hpa // CACHE_LINE, (hpa + length - 1) // CACHE_LINE
                sub_line.update(range(first, last + 1))
            return lines(dram, hpa, length)

        runs = {}
        for backend in BACKENDS:
            hv = _siloz_host(backend, seed=51)
            dram = hv.machine.dram
            decodes[0] = 0
            sub_line.clear()
            # Patched after the host boots: the decode LRU looks the
            # arithmetic up on each miss, so it sees this wrapper.
            monkeypatch.setattr(SkylakeMapping, "_decode_flat", counting_decode)
            monkeypatch.setattr(SimulatedDram, "_lines", recording_lines)
            marks = [dram.counters.activations]
            vm = hv.create_vm(_vm_spec())
            marks.append(dram.counters.activations)
            proc = GuestOS(vm).spawn("a")
            proc.write(0x400000, bytes(range(64)))
            assert proc.read(0x400000, 64) == bytes(range(64))
            hpa = proc.hpa_of(0x401000)
            marks.append(dram.counters.activations)
            device = hv.attach_passthrough_device("g", "vf0")
            device.domain.translate(0x3000)
            marks.append(dram.counters.activations)
            monkeypatch.undo()
            assert 0 < decodes[0] <= len(sub_line), backend
            assert [b - a for a, b in zip(marks, marks[1:])] == [323, 499, 346]
            assert hpa == 0x415000, backend
            assert dram.clock == 7.008000000000063e-05, backend
            tables = [
                dram.read(page, 4096, ecc=False)
                for page in vm.ept.table_pages + device.domain.table_pages
            ] + [vm.read(page, 4096, ecc=False) for page in proc.pagetable.table_pages]
            runs[backend] = (list(dram.flips_log), tables)
        for backend in BACKENDS[1:]:
            assert runs["scalar"] == runs[backend], backend

    def test_dma_hammer_is_one_act_batch(self):
        runs = {}
        for backend in BACKENDS:
            hv = _siloz_host(backend, seed=300)
            hv.create_vm(_vm_spec())
            device = hv.attach_passthrough_device("g", "vf0")
            flips = device.dma_hammer(0x3000, 5000)
            dram = hv.machine.dram
            assert len(flips) == 6, backend
            assert dram.counters.activations == 5669, backend
            assert dram.clock == 0.00034014000000002614, backend
            runs[backend] = list(dram.flips_log)
        for backend in BACKENDS[1:]:
            assert runs["scalar"] == runs[backend], backend


def _page_table_transcript(backend: str, seed: int) -> list:
    """Seeded ``map``/``unmap``/``remap_range``/``translate`` mix over the
    three kinds of table — the VM's EPT, an IOMMU domain and a guest page
    table — logging every outcome (value or error type), then the flips,
    the clock and the ACT count."""
    import random

    from repro.ept import ExtendedPageTable
    from repro.errors import ReproError
    from repro.guest import GuestOS

    rng = random.Random(seed)
    hv = _siloz_host(backend, seed)
    vm = hv.create_vm(_vm_spec())
    tables = {
        "ept": vm.ept,
        "iommu": hv.attach_passthrough_device("g", "vf0").domain,
        "guest": ExtendedPageTable(vm, GuestOS(vm).alloc_frame),
    }
    # Fuzzed mappings live above the VM's own GPAs and point at targets
    # nothing dereferences, so only the walks themselves touch memory.
    window, target = 1 << 30, 1 << 36

    def page(align: int = 4096) -> int:
        return rng.randrange(1024) * 4096 // align * align

    def size() -> int:
        return rng.choice((4096, 3 * 4096, 2 * MiB, 4 * MiB))

    log = []
    for _ in range(40):
        name = rng.choice(sorted(tables))
        table = tables[name]
        op = rng.choice(("map", "map", "unmap", "remap_range", "translate"))
        align = 2 * MiB if rng.random() < 0.3 else 4096
        if op == "map":
            args = (window + page(align), target + page(align), size())
        elif op == "unmap":
            args = (window + page(align), size())
        elif op == "remap_range":
            args = (target + page(), size(), target + (1 << 30) + page())
        else:
            args = (window + page() + rng.randrange(4096),)
        try:
            outcome = getattr(table, op)(*args)
        except ReproError as exc:
            outcome = type(exc).__name__
        log.append((name, op, args, outcome, table.mapped_bytes))
    dram = hv.machine.dram
    return log + [list(dram.flips_log), dram.clock, dram.counters.activations]


@pytest.mark.tier2
class TestPageTableFuzz:
    """Seeded page-table op mixes replay identically on both backends."""

    @pytest.mark.parametrize("seed", range(200, 220))
    def test_page_table_ops_backend_independent(self, seed):
        scalar = _page_table_transcript("scalar", seed)
        assert scalar[:-3], "fuzz produced no ops"
        for backend in BACKENDS[1:]:
            assert scalar == _page_table_transcript(backend, seed), (
                f"seed={seed} {backend}"
            )


class _ClockHook:
    """A DRAM hook that lets idle time pass every *every* ACTs, so a
    refresh window can close inside another ACT."""

    def __init__(self, every: int, seconds: float):
        self.every, self.seconds, self.acts = every, seconds, 0

    def on_activate(self, dram, socket, bank, row):
        self.acts += 1
        if self.acts % self.every == 0:
            dram.advance_time(self.seconds)

    def on_clock(self, dram):
        pass

    def on_write(self, dram, hpa, length):
        pass


def _single_act_transcript(backend: str) -> dict:
    """Single ``activate``/``write``/``read`` calls, never a batch, over
    every branch the single-ACT path inlines: a repaired aggressor and a
    repaired victim, RowPress open time, data-dependent flips, TRR, a
    hook that advances time and refresh windows closing mid-run."""
    from repro.dram.disturbance import DisturbanceProfile
    from repro.dram.geometry import DRAMGeometry
    from repro.dram.media import MediaAddress
    from repro.dram.module import SimulatedDram
    from repro.dram.trr import TrrConfig
    from repro.errors import UncorrectableError

    geom = DRAMGeometry.small(rows_per_bank=128, rows_per_subarray=16)
    dram = SimulatedDram(
        geom,
        profile=DisturbanceProfile.test_scale(threshold_mean=25.0),
        trr_config=TrrConfig(),
        seed=5,
        refresh_window=2e-4,
        data_dependent_flips=True,
        backend=backend,
    )
    bank = 3
    dram.add_repair(0, bank, 20, 52)  # aggressor 20 hammers around 52
    dram.add_repair(0, bank, 40, 37)  # victim 40 lives in 37's neighbour

    def hpa(row: int, col: int = 0) -> int:
        return dram.mapping.encode(
            MediaAddress.from_socket_bank(geom, 0, bank, row, col)
        )

    dram.register_hook(_ClockHook(every=97, seconds=3e-5))
    for row in (19, 21, 39, 41, 51, 53):
        dram.write(hpa(row, 64), bytes(range(256)) * 2)
    log = []
    for i in range(1200):
        row = (20, 36, 38, 22, 18)[i % 5]
        open_s = 4e-6 if i % 7 == 0 else 0.0
        flips = dram.activate(0, bank, row, open_seconds=open_s)
        log.append(("act", i, tuple(flips)))
        if i % 150 == 149:
            for victim in (19, 21, 37, 40, 51, 53):
                dram.write(hpa(victim, 8), b"\xff" * 8)
                try:
                    log.append(("read", victim, dram.read(hpa(victim, 64), 48)))
                except UncorrectableError as exc:
                    log.append(("mce", victim, exc.address))
                log.append(("raw", victim, dram.read(hpa(victim), 128, ecc=False)))
            for flip in dram.flips_log[-4:]:  # sense each new flip's word
                word = hpa(flip.row, flip.bit // 64 * 8)
                try:
                    log.append(("word", flip.row, dram.read(word, 8)))
                except UncorrectableError as exc:
                    log.append(("mce", flip.row, exc.address))
    pressure = [
        dram.disturbance.pressure_on(0, bank, row) for row in range(geom.rows_per_bank)
    ]
    return {
        "log": log,
        "flips": list(dram.flips_log),
        "clock": dram.clock,
        "counters": dram.counters,
        "suppressed": dram.flips_suppressed,
        "pressure": pressure,
        "ecc": list(dram.ecc.stats.events),
    }


class TestSingleActs:
    """The single-ACT path (``SimulatedDram.activate`` plus the model's
    ``on_activate``) against the scalar reference, one call at a time."""

    def test_single_act_edge_cases_replay_identically(self):
        runs = {backend: _single_act_transcript(backend) for backend in BACKENDS}
        scalar = runs["scalar"]
        # Not vacuous: every inlined branch fired.
        assert scalar["flips"], "no flips: raise pressure"
        assert scalar["suppressed"] > 0
        assert scalar["counters"].refresh_windows > 1
        assert scalar["counters"].trr_refs > 0
        assert scalar["ecc"], "no read sensed a flip"
        rows = {f.row for f in scalar["flips"]}
        assert 40 in rows, "the repaired victim never flipped"
        assert rows & {51, 53}, "the repaired aggressor's victims never flipped"
        for backend in BACKENDS[1:]:
            for key in scalar:
                assert runs[backend][key] == scalar[key], (backend, key)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("open_seconds", [-1e-6, float("nan")])
    def test_refused_activate_changes_nothing(self, backend, open_seconds):
        from repro.errors import DramError

        hv = _siloz_host(backend, seed=300)
        dram = hv.machine.dram
        dram.activate(0, 0, 5)
        before = (dram.clock, dataclasses.replace(dram.counters), list(dram.flips_log))
        pressure = dram.disturbance.pressure_on(0, 0, 4)
        with pytest.raises(DramError, match="open time"):
            dram.activate(0, 0, 5, open_seconds=open_seconds)
        with pytest.raises(DramError, match="backwards"):
            dram.advance_time(open_seconds)
        assert (dram.clock, dram.counters, dram.flips_log) == before
        assert dram.disturbance.pressure_on(0, 0, 4) == pressure

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refused_hammer_changes_nothing(self, backend):
        from repro.errors import DramError

        hv = _siloz_host(backend, seed=300)
        vm = hv.create_vm(_vm_spec())
        dram = hv.machine.dram
        before = (dram.clock, dataclasses.replace(dram.counters), list(dram.flips_log))
        with pytest.raises(DramError, match="open time"):
            vm.hammer(0x3000, 50, open_seconds=-1e-6)
        assert (dram.clock, dram.counters, dram.flips_log) == before
