"""The async request/response core behind ``repro serve``.

Two layers, deliberately split so the determinism contract is
structural rather than hoped-for:

- :class:`FleetStateMachine` — the **synchronous** request path: a live
  :class:`~repro.fleet.host.Fleet` plus the bounded
  :class:`~repro.fleet.admission.AdmissionController`, driven by four
  primitive operations (``place``, ``drain``, ``evict``, ``attack``)
  that are each appended to an ordered **request log** as they are
  applied.  :func:`replay_request_log` re-runs a log through a fresh
  state machine; :meth:`FleetStateMachine.state_digest` hashes the
  resulting fleet state, so *async run digest == replay digest* is the
  bit-identity check the load generator and CI enforce.

- :class:`ServeCore` — the **asyncio** service loop: routes protocol
  requests onto the state machine.  ``place_vm`` submits into the
  bounded admission queue immediately (a full queue is a typed 429-style
  ``BUSY`` response, never a block) and parks the caller on a future;
  one drain pass per event-loop tick batch-processes whatever
  accumulated, so concurrent clients genuinely share drains and
  backpressure is real.  Every request is accounted into
  ``repro.obs`` (``serve.requests`` / ``serve.rejections`` counters and
  a wall-clock latency histogram) via
  :class:`~repro.obs.events.ServeRequestEvent`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import FleetError, ReproError, ServeError
from repro.fleet.admission import (
    AdmissionController,
    AdmissionDecision,
    check_fleet_fields,
)
from repro.fleet.host import Fleet
from repro.fleet.report import _decision_dict
from repro.fleet.scheduler import make_scheduler
from repro.hv.hypervisor import VmSpec
from repro.log import get_logger
from repro.serve.protocol import (
    ErrorCode,
    Request,
    Response,
    ServeFault,
    error_response,
    fault_from_decision,
    ok_response,
    validate_request,
)
from repro.units import MiB

_log = get_logger("serve.core")


@dataclass(frozen=True)
class ServiceConfig:
    """One serve daemon, fully described (mirrors ``ClusterConfig``)."""

    hosts: int = 2
    policy: str = "best-fit"
    backend: str = "scalar"
    seed: int = 0
    sockets: int = 1
    queue_depth: int = 32
    max_retries: int = 2
    mitigation: str = "siloz"
    #: Default fuzzer pattern budget for ``run_attack`` requests.
    attack_budget: int = 4

    def __post_init__(self) -> None:
        check_fleet_fields(self, ServeError)
        if self.attack_budget <= 0:
            raise ServeError("attack_budget must be positive")

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (the ``info`` op ships this to clients)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ServiceConfig":
        """Rebuild a config from an ``info`` payload, ignoring unknown
        keys so newer servers stay readable by older clients."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in names})


class FleetStateMachine:
    """The synchronous fleet request path, with an ordered request log.

    Every mutating operation appends its wire-form entry to
    :attr:`log` *before* touching the fleet, so the log is a complete,
    replayable linearization of everything that happened.  The async
    service applies operations through exactly these methods (asyncio
    callbacks are atomic between awaits), and
    :func:`replay_request_log` applies the same methods in the same
    order — which is why the two digests can be compared bit for bit.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.fleet = Fleet.boot(
            config.hosts,
            seed=config.seed,
            sockets=config.sockets,
            backend=config.backend,
            mitigation=config.mitigation,
        )
        self.admission = AdmissionController(
            self.fleet,
            make_scheduler(config.policy),
            queue_depth=config.queue_depth,
            max_retries=config.max_retries,
        )
        #: VM name -> placing host id, for evict routing.
        self.owner: Dict[str, int] = {}
        #: Attack outcomes in execution order (part of the digest).
        self.attacks: List[Dict[str, Any]] = []
        #: Ordered, replayable log of every applied operation.
        self.log: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Primitive operations (the service's only mutation paths)
    # ------------------------------------------------------------------

    def apply_place(self, name: str, memory_bytes: int, socket: int = 0) -> bool:
        """Submit one placement request into the bounded admission
        queue; ``False`` means the queue was full (typed QUEUE_FULL
        decision recorded — the caller turns it into a BUSY response)."""
        self.log.append(
            {
                "op": "place",
                "name": name,
                "memory_bytes": memory_bytes,
                "socket": socket,
            }
        )
        return self.admission.submit(
            VmSpec(name=name, memory_bytes=memory_bytes, socket=socket)
        )

    def apply_drain(self) -> List[AdmissionDecision]:
        """Drain the admission queue to empty; records placements."""
        self.log.append({"op": "drain"})
        decisions = self.admission.drain()
        for decision in decisions:
            if decision.admitted:
                self.owner[decision.vm] = decision.host_id
        return decisions

    def apply_evict(self, name: str) -> int:
        """Tear one placed VM down (§5.3 privileged path) and release
        its subarray-group reservation; returns the host it left."""
        host_id = self.owner.pop(name, None)
        if host_id is None:
            raise ServeError(f"no placed VM named {name!r}")
        self.log.append({"op": "evict", "name": name})
        self.fleet.host(host_id).remove_vm(name)
        return host_id

    def apply_attack(self, host_id: int, budget: int) -> Dict[str, Any]:
        """Run a containment campaign from *host_id*'s first tenant
        (idle hosts report so); the outcome joins the state digest."""
        from repro.attack.runner import first_tenant_attack

        host = self.fleet.host(host_id)  # raises FleetError if unknown
        self.log.append({"op": "attack", "host": host_id, "budget": budget})
        summary, _ = first_tenant_attack(
            host.hv, seed=self.config.seed, pattern_budget=budget
        )
        result = {"host": host_id, **summary}
        self.attacks.append(result)
        return result

    # ------------------------------------------------------------------
    # Determinism contract
    # ------------------------------------------------------------------

    def state_snapshot(self) -> Dict[str, Any]:
        """Canonical plain-data fleet state (what the digest hashes).

        The backend is scrubbed as the campaign merge digest scrubs it:
        the differential engine guarantees bit-identical simulation
        results, so the digest may be compared across backends too.
        """
        hosts = []
        for host in self.fleet.hosts:
            cap = host.capacity()
            hosts.append(
                {
                    "host": host.host_id,
                    "vms": [
                        [s.name, s.memory_bytes, s.socket]
                        for s in host.vm_specs.values()
                    ],
                    "free_guest_nodes": list(cap.free_guest_node_ids),
                    "offlined_bytes": cap.offlined_bytes,
                    "clock": host.hv.machine.dram.clock,
                }
            )
        config = self.config.to_dict()
        config.pop("backend", None)
        return {
            "config": config,
            "hosts": hosts,
            "decisions": [_decision_dict(d) for d in self.admission.decisions],
            "attacks": self.attacks,
            "requests_applied": len(self.log),
        }

    def state_digest(self) -> str:
        """sha256 over the canonical state — the replay-equality check."""
        blob = json.dumps(
            self.state_snapshot(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()


def replay_request_log(
    config: ServiceConfig, log: List[Dict[str, Any]]
) -> FleetStateMachine:
    """Re-run a request log through the synchronous path, in order.

    This is the verification half of the serve contract: the load
    generator fetches the daemon's log and digest, replays the log here,
    and asserts :meth:`FleetStateMachine.state_digest` matches bit for
    bit — proving the async layer applied exactly the operations it
    says it did, in a serializable order.
    """
    sm = FleetStateMachine(config)
    for entry in log:
        op = entry.get("op")
        if op == "place":
            sm.apply_place(
                str(entry["name"]),
                int(entry["memory_bytes"]),
                int(entry.get("socket", 0)),
            )
        elif op == "drain":
            sm.apply_drain()
        elif op == "evict":
            sm.apply_evict(str(entry["name"]))
        elif op == "attack":
            sm.apply_attack(int(entry["host"]), int(entry["budget"]))
        else:
            raise ServeError(f"unknown request-log op {op!r}")
    return sm


class ServeCore:
    """Asyncio service loop: protocol requests onto the state machine.

    All fleet mutation happens synchronously inside event-loop
    callbacks (atomic between awaits), so the request log is a true
    linearization.  Draining is batched: submits schedule a single
    ``call_soon`` drain per tick, so a burst of concurrent ``place_vm``
    requests shares one drain pass — and can genuinely overflow the
    bounded queue into BUSY responses, which is the backpressure story
    the load generator measures.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.sm = FleetStateMachine(config)
        self._pending: Dict[str, "asyncio.Future[AdmissionDecision]"] = {}
        self._drain_scheduled = False
        #: Set by the ``shutdown`` op / SIGTERM: mutations are refused.
        self.draining = False
        #: Local request accounting (always on, independent of obs).
        self.counters: Dict[str, int] = {}
        #: Hook the server installs so the ``shutdown`` op stops it.
        self.shutdown_callback: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        """Route one request; always returns a typed response.

        Library errors (:class:`~repro.errors.ReproError`) and anything
        unexpected become :attr:`ErrorCode.INTERNAL` faults carrying
        only the exception type and message — tracebacks stay in the
        server log, never on the socket.
        """
        started = time.perf_counter_ns()
        fault = validate_request(request)
        if fault is not None:
            response = error_response(request.id, fault)
        else:
            try:
                response = await self._dispatch(request)
            except ReproError as exc:
                response = error_response(
                    request.id,
                    ServeFault(
                        code=ErrorCode.INTERNAL,
                        reason=type(exc).__name__,
                        detail=str(exc),
                    ),
                )
            except Exception as exc:  # noqa: BLE001 — daemon must not die
                _log.exception("serve: internal error handling %s", request.op)
                response = error_response(
                    request.id,
                    ServeFault(
                        code=ErrorCode.INTERNAL,
                        reason=type(exc).__name__,
                        detail=str(exc),
                    ),
                )
        self._account(request, response, time.perf_counter_ns() - started)
        return response

    async def _dispatch(self, request: Request) -> Response:
        if request.op == "place_vm":
            return await self._op_place(request)
        if request.op == "evict_vm":
            return self._op_evict(request)
        if request.op == "run_attack":
            return self._op_attack(request)
        if request.op == "health":
            return self._op_health(request)
        if request.op == "capacity":
            return self._op_capacity(request)
        if request.op == "metrics":
            return self._op_metrics(request)
        if request.op == "info":
            return self._op_info(request)
        if request.op == "log":
            return ok_response(
                request.id, log=list(self.sm.log), digest=self.sm.state_digest()
            )
        if request.op == "digest":
            return ok_response(
                request.id,
                digest=self.sm.state_digest(),
                requests_applied=len(self.sm.log),
            )
        if request.op == "shutdown":
            return self._op_shutdown(request)
        raise ServeError(f"unroutable op {request.op!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Mutating ops
    # ------------------------------------------------------------------

    async def _op_place(self, request: Request) -> Response:
        """Admit one VM: bounded-queue submit, batched drain, typed
        rejection.  BUSY (queue full) responds immediately; everything
        else parks on a future the next drain pass resolves."""
        if self.draining:
            return error_response(request.id, _draining_fault())
        parsed = self._place_params(request)
        if isinstance(parsed, ServeFault):
            return error_response(request.id, parsed)
        name, memory_bytes, socket = parsed
        if name in self._pending or name in self.sm.owner:
            return error_response(
                request.id,
                ServeFault(
                    code=ErrorCode.INVALID,
                    reason="duplicate-name",
                    detail=f"VM {name!r} is already placed or pending",
                ),
            )
        if not self.sm.apply_place(name, memory_bytes, socket):
            return error_response(
                request.id,
                ServeFault(
                    code=ErrorCode.BUSY,
                    reason="queue-full",
                    detail="admission queue is full; back off and resubmit",
                    extra={
                        "queued": self.sm.admission.queued,
                        "queue_depth": self.config.queue_depth,
                    },
                ),
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[AdmissionDecision]" = loop.create_future()
        self._pending[name] = future
        self._schedule_drain()
        decision = await future
        if decision.admitted:
            return ok_response(
                request.id, host=decision.host_id, attempts=decision.attempts
            )
        return error_response(request.id, fault_from_decision(decision))

    def _place_params(
        self, request: Request
    ) -> "Tuple[str, int, int] | ServeFault":
        params = request.params
        name = params.get("name")
        if not isinstance(name, str) or not name:
            return _bad_params("'name' must be a non-empty string")
        memory = params.get("memory_bytes")
        if memory is None and "memory_mib" in params:
            mib = params["memory_mib"]
            if isinstance(mib, bool) or not isinstance(mib, int) or mib <= 0:
                return _bad_params("'memory_mib' must be a positive integer")
            memory = mib * MiB
        if isinstance(memory, bool) or not isinstance(memory, int) or memory <= 0:
            return _bad_params(
                "'memory_bytes' (or 'memory_mib') must be a positive integer"
            )
        socket = params.get("socket", 0)
        if isinstance(socket, bool) or not isinstance(socket, int) or socket < 0:
            return _bad_params("'socket' must be a non-negative integer")
        return name, memory, socket

    def _schedule_drain(self) -> None:
        if not self._drain_scheduled:
            self._drain_scheduled = True
            asyncio.get_running_loop().call_soon(self._drain_now)

    def _drain_now(self) -> None:
        """One batched drain pass; resolves every parked placement."""
        self._drain_scheduled = False
        if not self.sm.admission.queued:
            return
        for decision in self.sm.apply_drain():
            future = self._pending.pop(decision.vm, None)
            if future is not None and not future.done():
                future.set_result(decision)

    def _op_evict(self, request: Request) -> Response:
        if self.draining:
            return error_response(request.id, _draining_fault())
        name = request.params.get("name")
        if not isinstance(name, str) or not name:
            return error_response(
                request.id, _bad_params("'name' must be a non-empty string")
            )
        if name in self._pending:
            self._drain_now()  # settle the queue so the placement lands
        if name not in self.sm.owner:
            return error_response(
                request.id,
                ServeFault(
                    code=ErrorCode.NOT_FOUND,
                    reason="no-such-vm",
                    detail=f"no placed VM named {name!r}",
                ),
            )
        host_id = self.sm.apply_evict(name)
        return ok_response(request.id, host=host_id)

    def _op_attack(self, request: Request) -> Response:
        if self.draining:
            return error_response(request.id, _draining_fault())
        host_id = request.params.get("host", 0)
        if isinstance(host_id, bool) or not isinstance(host_id, int):
            return error_response(
                request.id, _bad_params("'host' must be an integer")
            )
        budget = request.params.get("budget", self.config.attack_budget)
        if isinstance(budget, bool) or not isinstance(budget, int) or budget <= 0:
            return error_response(
                request.id, _bad_params("'budget' must be a positive integer")
            )
        self._drain_now()  # settle pending placements before hammering
        try:
            result = self.sm.apply_attack(host_id, budget)
        except FleetError as exc:
            return error_response(
                request.id,
                ServeFault(
                    code=ErrorCode.NOT_FOUND,
                    reason="no-such-host",
                    detail=str(exc),
                ),
            )
        return ok_response(request.id, **result)

    def _op_shutdown(self, request: Request) -> Response:
        """Begin draining: settle the queue, refuse new mutations, and
        (via the server's callback) stop accepting connections."""
        self.draining = True
        self._drain_now()
        if self.shutdown_callback is not None:
            asyncio.get_running_loop().call_soon(self.shutdown_callback)
        return ok_response(
            request.id,
            digest=self.sm.state_digest(),
            requests_applied=len(self.sm.log),
        )

    # ------------------------------------------------------------------
    # Read-only ops
    # ------------------------------------------------------------------

    def _op_health(self, request: Request) -> Response:
        hosts = [
            {
                "host": h.host_id,
                "degraded": h.degraded,
                "vms": len(h.vm_specs),
                "clock": h.hv.machine.dram.clock,
            }
            for h in self.sm.fleet.hosts
        ]
        return ok_response(
            request.id,
            hosts=hosts,
            queued=self.sm.admission.queued,
            pending=len(self._pending),
            draining=self.draining,
        )

    def _op_capacity(self, request: Request) -> Response:
        per_host = {
            str(h.host_id): h.capacity().to_dict() for h in self.sm.fleet.hosts
        }
        return ok_response(
            request.id,
            hosts=per_host,
            total_free_guest_bytes=sum(
                cap["free_guest_bytes"] for cap in per_host.values()
            ),
            placed_vms=len(self.sm.owner),
        )

    def _op_metrics(self, request: Request) -> Response:
        return ok_response(
            request.id,
            serve=dict(sorted(self.counters.items())),
            obs_enabled=obs.ENABLED,
            obs=obs.metrics_snapshot() if obs.ENABLED else {},
        )

    def _op_info(self, request: Request) -> Response:
        from repro.serve.protocol import OPS, PROTOCOL_VERSION

        return ok_response(
            request.id,
            protocol=PROTOCOL_VERSION,
            ops=list(OPS),
            config=self.config.to_dict(),
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _account(
        self, request: Request, response: Response, wall_ns: int
    ) -> None:
        outcome = "ok" if response.ok else _fault_code(response)
        reason = "" if response.ok or response.error is None else (
            response.error.reason
        )
        self._bump("requests")
        self._bump(f"ops.{request.op}")
        if outcome != "ok":
            self._bump(f"errors.{outcome}")
        if outcome in (ErrorCode.BUSY.value, ErrorCode.CAPACITY.value):
            self._bump("rejections")
        if obs.ENABLED:
            obs.emit(
                obs.ServeRequestEvent(
                    op=request.op,
                    outcome=outcome,
                    reason=reason,
                    wall_ns=wall_ns,
                )
            )

    def _bump(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def summary_lines(self) -> List[str]:
        """The final metrics summary a draining daemon prints."""
        total = self.counters.get("requests", 0)
        rejected = self.counters.get("rejections", 0)
        ops = ", ".join(
            f"{k.split('.', 1)[1]}={v}"
            for k, v in sorted(self.counters.items())
            if k.startswith("ops.")
        )
        lines = [
            f"serve: final summary — {total} request(s), "
            f"{rejected} rejection(s), {len(self.sm.owner)} VM(s) placed",
        ]
        if ops:
            lines.append(f"serve: ops: {ops}")
        lines.append(f"serve: final state digest {self.sm.state_digest()}")
        return lines


def _bad_params(detail: str) -> ServeFault:
    return ServeFault(code=ErrorCode.INVALID, reason="bad-params", detail=detail)


def _draining_fault() -> ServeFault:
    return ServeFault(
        code=ErrorCode.SHUTTING_DOWN,
        reason="draining",
        detail="daemon is draining; no new mutations accepted",
    )


def _fault_code(response: Response) -> str:
    assert response.error is not None
    return response.error.code.value


__all__ = [
    "FleetStateMachine",
    "ServeCore",
    "ServiceConfig",
    "replay_request_log",
]
