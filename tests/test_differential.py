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
