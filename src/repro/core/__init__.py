"""The paper's contribution: the Siloz hypervisor (paper §5).

- :mod:`repro.core.config` — Siloz boot parameters (subarray size,
  EPT guard block b/o, protection mode),
- :mod:`repro.core.groups` — boot-time subarray-group computation and
  logical-NUMA-node provisioning (§5.2, §5.3),
- :mod:`repro.core.siloz` — the hypervisor itself (§5.1-§5.4),
- :mod:`repro.core.policy` — the two isolation verdicts: the placement
  audit and the flip classifier the tests and security benches assert,
- :mod:`repro.core.softrefresh` — the rejected software-refresh
  alternative for EPT protection (§8.3),
- :mod:`repro.core.remediation` — boot-time offlining of isolation-
  violating rows (§6) and the runtime migrate-and-offline path the
  health monitor drives.
"""

from repro.core.config import EptProtection, SilozConfig
from repro.core.remediation import (
    MigrationReport,
    offline_row_group_live,
)
from repro.core.siloz import SilozHypervisor
from repro.core.policy import audit_hypervisor, classify_flips

__all__ = [
    "EptProtection",
    "MigrationReport",
    "SilozConfig",
    "SilozHypervisor",
    "audit_hypervisor",
    "classify_flips",
    "offline_row_group_live",
]
