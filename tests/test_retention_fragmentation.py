"""Tests for the §8.1 fragmentation math."""

import pytest

from repro.core.fragmentation import (
    TYPICAL_VM_MIX,
    StrandingReport,
    groups_for,
    provider_aligned_mix,
    stranding_report,
    sweep_group_sizes,
)
from repro.errors import ReproError
from repro.units import GiB, MiB


class TestFragmentation:
    GROUP = 1536 * MiB  # the paper's 1.5 GiB group

    def test_groups_for(self):
        assert groups_for(512 * MiB, self.GROUP) == 1
        assert groups_for(self.GROUP, self.GROUP) == 1
        assert groups_for(self.GROUP + 1, self.GROUP) == 2
        assert groups_for(160 * GiB, self.GROUP) == 107

    def test_paper_example_512mib_vm(self):
        """§8.1: a 512 MiB VM on a 1.5 GiB group strands 1 GiB."""
        report = stranding_report([512 * MiB], self.GROUP)
        assert report.stranded_bytes == 1 * GiB
        assert report.stranded_fraction == pytest.approx(2 / 3)

    def test_typical_mix_stranding_moderate(self):
        report = stranding_report(list(TYPICAL_VM_MIX), self.GROUP)
        assert 0.0 < report.stranded_fraction < 0.10

    def test_snc_halves_worst_case(self):
        """§8.1: SNC-style half-size groups reduce stranding."""
        full = stranding_report(list(TYPICAL_VM_MIX), self.GROUP)
        snc = stranding_report(list(TYPICAL_VM_MIX), self.GROUP // 2)
        assert snc.stranded_bytes < full.stranded_bytes

    def test_sweep_monotone_for_micro_vms(self):
        micro = [512 * MiB] * 8
        reports = sweep_group_sizes(micro, [self.GROUP // 2, self.GROUP, 2 * self.GROUP])
        stranded = [r.stranded_bytes for r in reports]
        assert stranded == sorted(stranded)

    def test_provider_aligned_mix_strands_nothing(self):
        """§8.1: providers already sell sizes at group granularity."""
        mix = provider_aligned_mix(self.GROUP)
        assert stranding_report(mix, self.GROUP).stranded_bytes == 0

    def test_report_str(self):
        text = str(stranding_report([512 * MiB], self.GROUP))
        assert "stranded" in text and "1.5 GiB" in text

    def test_validation(self):
        with pytest.raises(ReproError):
            stranding_report([], self.GROUP)
        with pytest.raises(ReproError):
            groups_for(0, self.GROUP)
        with pytest.raises(ReproError):
            provider_aligned_mix(self.GROUP, count=0)
