"""Guest operating-system layer (paper §2.1, §9).

Completes the three-address-type story: guest *virtual* addresses map to
guest *physical* addresses through page tables the guest OS keeps in its
own RAM, which map to *host physical* addresses through the EPT.  Both
are the one table class, :class:`~repro.ept.table.ExtendedPageTable`:
the EPT's nodes live in host DRAM, a process's page table is the same
class over the VM's memory, so its nodes live in guest RAM.  The
layer exists for two reasons:

- fidelity: GVA -> GPA -> HPA walks exercise both tables against the
  simulated DRAM bits;
- the §9 trade-off: Siloz provides *inter*-VM protection only.  Guest
  processes share the VM's subarray groups, so one process's hammering
  can flip another's bits — demonstrated in the tests, exactly as the
  paper concedes ("Siloz can increase intra-VM subarray co-location").
"""

from repro.guest.os import GuestOS, GuestProcess

__all__ = ["GuestOS", "GuestProcess"]
