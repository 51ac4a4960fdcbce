"""Retry/backoff edge coverage for ``fleet/admission.py``.

The admission controller was previously exercised only end-to-end
through fleet campaigns; these tests pin the queue's edge semantics
directly: retry-to-tail ordering under interleaved submit/drain,
doubling backoff values advancing the fleet clock, queue-full
backpressure, and evictions restoring both queue slots and fleet
placement capacity.
"""

from __future__ import annotations

import pytest

from repro.errors import HvError
from repro.fleet.admission import AdmissionController, RejectReason
from repro.fleet.host import Fleet
from repro.fleet.scheduler import make_scheduler
from repro.hv.hypervisor import VmSpec
from repro.units import MiB


def _controller(hosts: int = 1, **kwargs) -> AdmissionController:
    fleet = Fleet.boot(hosts, seed=3)
    return AdmissionController(fleet, make_scheduler("best-fit"), **kwargs)


def _fill(ctl: AdmissionController, size_mib: int = 1) -> list[str]:
    """Admit VMs until the fleet rejects one; returns admitted names."""
    admitted: list[str] = []
    i = 0
    while True:
        name = f"fill-{i}"
        assert ctl.submit(VmSpec(name=name, memory_bytes=size_mib * MiB))
        decision = ctl.drain()[0]
        if not decision.admitted:
            assert decision.reason is RejectReason.RETRIES_EXHAUSTED
            return admitted
        admitted.append(name)
        i += 1
        assert i < 10_000, "fleet never filled"


class TestQueueBackpressure:
    """submit() at the bounded door."""

    def test_full_queue_rejects_typed(self):
        ctl = _controller(queue_depth=2)
        assert ctl.submit(VmSpec(name="a", memory_bytes=MiB))
        assert ctl.submit(VmSpec(name="b", memory_bytes=MiB))
        assert not ctl.submit(VmSpec(name="c", memory_bytes=MiB))
        assert ctl.queued == 2
        rejected = ctl.decisions[-1]
        assert rejected.vm == "c" and not rejected.admitted
        assert rejected.reason is RejectReason.QUEUE_FULL

    def test_drain_restores_queue_capacity(self):
        """Draining (whatever the outcomes) frees slots at the door."""
        ctl = _controller(queue_depth=2)
        ctl.submit(VmSpec(name="a", memory_bytes=MiB))
        ctl.submit(VmSpec(name="b", memory_bytes=MiB))
        assert not ctl.submit(VmSpec(name="c", memory_bytes=MiB))
        assert len(ctl.drain()) == 2
        assert ctl.queued == 0
        assert ctl.submit(VmSpec(name="c2", memory_bytes=MiB))

    def test_queue_depth_validation(self):
        with pytest.raises(HvError):
            _controller(queue_depth=0)
        with pytest.raises(HvError):
            _controller(max_retries=-1)


class TestRetryToTail:
    """Requests that cannot be placed retry behind waiting work."""

    def test_unplaceable_request_decided_after_later_arrivals(self):
        ctl = _controller(max_retries=1)
        admitted = _fill(ctl)
        # Free exactly one small slot: "small" fits, "big" never will.
        ctl.fleet.hosts[0].remove_vm(admitted[0])
        start = len(ctl.decisions)
        ctl.submit(VmSpec(name="big", memory_bytes=4 * MiB))
        ctl.submit(VmSpec(name="small", memory_bytes=MiB))
        decisions = ctl.drain()
        # big fails and retries to the TAIL, so the later small request
        # is decided (admitted) first; big's eviction comes after.
        assert [d.vm for d in decisions] == ["small", "big"]
        assert decisions[0].admitted
        assert not decisions[-1].admitted
        assert decisions[-1].reason is RejectReason.RETRIES_EXHAUSTED
        # attempts = initial try + max_retries requeues
        assert decisions[-1].attempts == 2
        assert len(ctl.decisions) == start + 2

    def test_interleaved_submit_drain_stays_fifo(self):
        ctl = _controller()
        ctl.submit(VmSpec(name="a", memory_bytes=MiB))
        first = ctl.drain()
        ctl.submit(VmSpec(name="b", memory_bytes=MiB))
        ctl.submit(VmSpec(name="c", memory_bytes=MiB))
        second = ctl.drain()
        assert [d.vm for d in first] == ["a"]
        assert [d.vm for d in second] == ["b", "c"]
        assert all(d.admitted for d in first + second)
        assert [d.vm for d in ctl.decisions] == ["a", "b", "c"]

    def test_retry_sees_capacity_freed_between_attempts(self):
        """A requeued request is re-tried against the *current* fleet:
        capacity freed after its first failure admits it."""
        ctl = _controller(max_retries=1)
        victims = _fill(ctl)
        host = ctl.fleet.hosts[0]

        class _FreeingScheduler:
            """Evicts a resident VM after the first placement failure,
            so the retry (same drain) finds room."""

            def __init__(self, inner):
                self.inner = inner
                self.failures = 0

            def place(self, fleet, spec):
                try:
                    return self.inner.place(fleet, spec)
                except Exception:
                    if self.failures == 0:
                        self.failures += 1
                        host.remove_vm(victims[0])
                    raise

        ctl.scheduler = _FreeingScheduler(ctl.scheduler)
        assert ctl.submit(VmSpec(name="retry-win", memory_bytes=MiB))
        decisions = ctl.drain()
        assert len(decisions) == 1
        assert decisions[0].admitted and decisions[0].attempts == 2


class TestBackoff:
    """Doubling backoff advances the fleet's simulated clock."""

    def test_backoff_doubles_per_attempt(self):
        backoff_s = 0.002
        ctl = _controller(max_retries=2, backoff_s=backoff_s)
        _fill(ctl)
        clock_before = ctl.fleet.hosts[0].hv.machine.dram.clock
        ctl.submit(VmSpec(name="big", memory_bytes=4 * MiB))
        decision = ctl.drain()[0]
        assert not decision.admitted and decision.attempts == 3
        elapsed = ctl.fleet.hosts[0].hv.machine.dram.clock - clock_before
        # Two backoffs before the final attempt: b*2^0 + b*2^1 = 3b.
        assert elapsed == pytest.approx(backoff_s * 3, rel=1e-6)

    def test_zero_retries_never_backs_off(self):
        ctl = _controller(max_retries=0, backoff_s=0.5)
        _fill(ctl)
        clock_before = ctl.fleet.hosts[0].hv.machine.dram.clock
        ctl.submit(VmSpec(name="big", memory_bytes=4 * MiB))
        decision = ctl.drain()[0]
        assert not decision.admitted and decision.attempts == 1
        assert ctl.fleet.hosts[0].hv.machine.dram.clock == clock_before


class TestEvictionRestoresCapacity:
    """Fleet-side eviction makes rejected requests admissible again."""

    def test_remove_vm_then_resubmit_admits(self):
        ctl = _controller(max_retries=0)
        admitted = _fill(ctl)
        # Fleet is full: the same spec bounces with a typed shortfall.
        ctl.submit(VmSpec(name="again", memory_bytes=MiB))
        rejected = ctl.drain()[0]
        assert not rejected.admitted
        assert rejected.reason is RejectReason.RETRIES_EXHAUSTED
        assert rejected.requested_groups is not None
        # Evict one resident; the resubmission must now land.
        ctl.fleet.hosts[0].remove_vm(admitted[0])
        ctl.submit(VmSpec(name="again", memory_bytes=MiB))
        final = ctl.drain()[0]
        assert final.admitted and final.host_id == 0

    def test_acceptance_accounting(self):
        ctl = _controller(max_retries=0)
        _fill(ctl)  # admits until the final rejection
        assert ctl.rejected_by_reason() == {"retries-exhausted": 1}
