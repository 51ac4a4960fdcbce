"""The simulated host machine (paper Table 2).

A :class:`Machine` bundles the hardware a hypervisor boots on: DRAM
geometry, the BIOS-fixed physical-to-media mapping, the simulated DRAM
itself, and the CPU complement.  Two canonical shapes exist:
``Machine.small()`` (a few MiB, for tests and examples that simulate
every bit) and ``Machine.medium()`` (32 banks, for the performance
benches).  The Table 2 geometry itself is
:meth:`~repro.dram.geometry.DRAMGeometry.paper_default`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.dram.disturbance import DisturbanceProfile
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import SkylakeMapping
from repro.dram.module import SimulatedDram
from repro.dram.trr import TrrConfig
from repro.engine.backend import SimBackend


@dataclass
class Machine:
    """One physical server."""

    geom: DRAMGeometry
    mapping: SkylakeMapping
    dram: SimulatedDram
    cores_per_socket: int = 40

    def __post_init__(self) -> None:
        # Shape gauges: covers every factory (small/medium) and
        # direct construction alike.
        if obs.ENABLED:
            obs.METRICS.gauge("machine.sockets").set(self.geom.sockets)
            obs.METRICS.gauge("machine.banks_per_socket").set(
                self.geom.banks_per_socket
            )
            obs.METRICS.gauge("machine.rows_per_bank").set(
                self.geom.rows_per_bank
            )
            obs.METRICS.gauge("machine.total_bytes").set(self.geom.total_bytes)
            obs.METRICS.gauge("machine.cores").set(self.total_cores)

    @classmethod
    def small(
        cls,
        *,
        sockets: int = 1,
        rows_per_bank: int = 512,
        rows_per_subarray: int = 64,
        profile: DisturbanceProfile | None = None,
        trr_config: TrrConfig | None = None,
        seed: int = 0,
        cores_per_socket: int = 4,
        backend: SimBackend | str = SimBackend.SCALAR,
    ) -> "Machine":
        """A bit-for-bit simulatable host: 8 banks and 32 MiB per socket,
        64-row subarrays (so the scaled EPT guard block still fits inside
        one subarray)."""
        geom = DRAMGeometry.small(
            sockets=sockets,
            rows_per_bank=rows_per_bank,
            rows_per_subarray=rows_per_subarray,
        )
        mapping = SkylakeMapping.for_small_geometry(geom)
        # The threshold must sit well above normal-operation activation
        # counts (page zeroing, EPT writes) yet low enough that attack
        # tests flip bits in a few thousand ACTs.
        dram = SimulatedDram(
            geom,
            mapping,
            profile=profile or DisturbanceProfile.test_scale(threshold_mean=1500.0),
            trr_config=trr_config,
            seed=seed,
            backend=backend,
        )
        return cls(
            geom=geom,
            mapping=mapping,
            dram=dram,
            cores_per_socket=cores_per_socket,
        )

    @classmethod
    def medium(
        cls,
        *,
        sockets: int = 2,
        rows_per_subarray: int = 128,
        seed: int = 0,
        cores_per_socket: int = 8,
        backend: SimBackend | str = SimBackend.SCALAR,
    ) -> "Machine":
        """The performance-experiment host: 32 banks / 256 MiB per
        socket (see :meth:`DRAMGeometry.medium`)."""
        geom = DRAMGeometry.medium(
            sockets=sockets, rows_per_subarray=rows_per_subarray
        )
        mapping = SkylakeMapping(geom)
        dram = SimulatedDram(geom, mapping, seed=seed, backend=backend)
        return cls(
            geom=geom,
            mapping=mapping,
            dram=dram,
            cores_per_socket=cores_per_socket,
        )

    @property
    def total_cores(self) -> int:
        return self.geom.sockets * self.cores_per_socket

    def socket_cores(self, socket: int) -> tuple[int, ...]:
        self.geom.check_socket(socket)
        base = socket * self.cores_per_socket
        return tuple(range(base, base + self.cores_per_socket))
