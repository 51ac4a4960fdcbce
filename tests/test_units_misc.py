"""Coverage sweep: units helpers, error hierarchy, and small surfaces
not exercised elsewhere."""

import pytest

from repro import __version__
from repro.dram.geometry import DRAMGeometry
from repro.errors import (
    AddressError,
    AttackError,
    CgroupError,
    DramError,
    EptError,
    EptIntegrityError,
    EptViolation,
    GeometryError,
    HvError,
    IsolationViolation,
    MappingError,
    MemCtrlError,
    MmError,
    OfflineError,
    OutOfMemoryError,
    PlacementError,
    ReproError,
    UncorrectableError,
    WorkloadError,
)
from repro.hv.machine import Machine
from repro.units import (
    CACHE_LINE,
    GiB,
    KiB,
    MiB,
    PAGE_2M,
    PAGE_4K,
    TiB,
    fmt_bytes,
    is_power_of_two,
)


class TestUnits:
    def test_constants_consistent(self):
        assert MiB == 1024 * KiB
        assert GiB == 1024 * MiB
        assert TiB == 1024 * GiB
        assert PAGE_2M == 512 * PAGE_4K
        assert CACHE_LINE == 64

    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(3)
        assert not is_power_of_two(-4)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, "0 B"),
            (512, "512 B"),
            (KiB, "1 KiB"),
            (1536 * MiB, "1.5 GiB"),
            (384 * GiB, "384 GiB"),
            (2 * TiB, "2 TiB"),
            (-KiB, "-1 KiB"),
        ],
    )
    def test_fmt_bytes(self, n, expected):
        assert fmt_bytes(n) == expected


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc in (
            GeometryError,
            AddressError,
            MappingError,
            DramError,
            UncorrectableError,
            MemCtrlError,
            MmError,
            OutOfMemoryError,
            CgroupError,
            OfflineError,
            EptError,
            EptIntegrityError,
            EptViolation,
            HvError,
            PlacementError,
            IsolationViolation,
            AttackError,
            WorkloadError,
        ):
            assert issubclass(exc, ReproError)

    def test_specific_parentage(self):
        assert issubclass(MappingError, AddressError)
        assert issubclass(UncorrectableError, DramError)
        assert issubclass(OutOfMemoryError, MmError)
        assert issubclass(EptIntegrityError, EptError)
        assert issubclass(PlacementError, HvError)

    def test_uncorrectable_carries_address(self):
        err = UncorrectableError("bad", address=0x1234)
        assert err.address == 0x1234
        assert UncorrectableError("bad").address is None


class TestVersionAndMachines:
    def test_version_string(self):
        assert __version__.count(".") == 2

    def test_medium_machine_shape(self):
        machine = Machine.medium()
        assert machine.geom.banks_per_socket == 32
        assert machine.geom.socket_bytes == 256 * MiB

    def test_socket_cores_bounds(self):
        with pytest.raises(GeometryError):
            Machine.small().socket_cores(5)


class TestGeometryDescribe:
    def test_variants_describe(self):
        for geom in (
            DRAMGeometry.paper_default(),
            DRAMGeometry.medium(),
            DRAMGeometry.ddr5_server(),
            DRAMGeometry.hbm2_stack(),
        ):
            text = geom.describe()
            assert "subarray" in text and "capacity" in text
