"""Tests for §8.1 (sub-NUMA clustering) and §8.2 (DDR5/HBM2) geometry
variants."""

import pytest

from repro.core import SilozConfig, SilozHypervisor
from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import SkylakeMapping
from repro.dram.transforms import TransformConfig, subarray_isolation_preserved
from repro.errors import GeometryError
from repro.hv.machine import Machine
from repro.units import GiB, MiB


class TestSubNumaClustering:
    """§8.1: SNC halves group sizes for finer-grained provisioning."""

    def test_snc2_halves_group_size(self):
        base = DRAMGeometry.paper_default()
        snc = base.with_sub_numa_clustering(2)
        assert snc.subarray_group_bytes == base.subarray_group_bytes // 2
        assert snc.subarray_group_bytes == 768 * MiB

    def test_snc2_preserves_capacity(self):
        base = DRAMGeometry.paper_default()
        snc = base.with_sub_numa_clustering(2)
        assert snc.total_bytes == base.total_bytes
        assert snc.sockets == 4

    def test_snc3_on_six_channels(self):
        snc = DRAMGeometry.paper_default().with_sub_numa_clustering(3)
        assert snc.subarray_group_bytes == 512 * MiB

    def test_invalid_cluster_count_rejected(self):
        with pytest.raises(GeometryError):
            DRAMGeometry.paper_default().with_sub_numa_clustering(4)
        with pytest.raises(GeometryError):
            DRAMGeometry.paper_default().with_sub_numa_clustering(0)

    def test_group_size_scales_linearly_with_banks_touched(self):
        """§8.1: 'the size linearly decreases with the number of banks
        touched per page'."""
        base = DRAMGeometry.paper_default()
        for clusters in (1, 2, 3, 6):
            geom = (
                base
                if clusters == 1
                else base.with_sub_numa_clustering(clusters)
            )
            assert (
                geom.subarray_group_bytes * clusters == base.subarray_group_bytes
            )

    def test_snc_machine_boots_siloz(self):
        """End to end: Siloz on an SNC-2 small machine provisions twice
        as many (half-size) guest nodes per physical socket."""
        base = Machine.small(sockets=1)
        snc_geom = base.geom.with_sub_numa_clustering(2)
        mapping = SkylakeMapping.for_small_geometry(snc_geom)
        from repro.dram.module import SimulatedDram

        machine = Machine(
            geom=snc_geom,
            mapping=mapping,
            dram=SimulatedDram(snc_geom, mapping),
            cores_per_socket=2,
        )
        hv = SilozHypervisor.boot(machine)
        from repro.mm.numa import NodeKind

        guests = hv.topology.nodes_of_kind(NodeKind.GUEST_RESERVED)
        assert guests
        assert guests[0].total_bytes == base.geom.subarray_group_bytes // 2


class TestDdr5:
    """§8.2: more banks -> bigger groups; no mirroring/inversion."""

    def setup_method(self):
        self.geom = DRAMGeometry.ddr5_server()

    def test_bank_count_doubles(self):
        assert self.geom.banks_per_socket == 384

    def test_group_size_grows(self):
        # 384 banks * 1024 rows * 8 KiB = 3 GiB.
        assert self.geom.subarray_group_bytes == 3 * GiB

    def test_coarser_groups_offset_by_snc(self):
        """§8.1+§8.2 together: SNC-2 brings DDR5 groups back to 1.5 GiB."""
        snc = self.geom.with_sub_numa_clustering(2)
        assert snc.subarray_group_bytes == 1536 * MiB

    def test_ddr5_needs_no_artificial_groups(self):
        """§8.2: DDR5 undoes mirroring/inversion per device, so even
        non-power-of-2 subarray sizes keep isolation."""
        assert subarray_isolation_preserved(768, TransformConfig(ddr5=True))
        assert not subarray_isolation_preserved(768, TransformConfig(ddr5=False))

    def test_paper_config_fits_ddr5(self):
        cfg = SilozConfig.paper_default()
        cfg.validate_against(self.geom)
        assert cfg.reserved_fraction(self.geom) < 0.001


class TestHbm2:
    def setup_method(self):
        self.geom = DRAMGeometry.hbm2_stack()

    def test_many_banks(self):
        assert self.geom.banks_per_socket == 128

    def test_group_algebra_holds(self):
        expected = (
            self.geom.banks_per_socket
            * self.geom.rows_per_subarray
            * self.geom.row_bytes
        )
        assert self.geom.subarray_group_bytes == expected

    def test_mapping_constructs(self):
        mapping = SkylakeMapping(self.geom)
        hpa = self.geom.row_group_bytes * 3 + 64
        assert mapping.encode(mapping.decode(hpa)) == hpa
