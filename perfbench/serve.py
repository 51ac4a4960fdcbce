"""``serve``: the ``repro serve`` request path, in process.

Each round boots a fresh two-host service core (``ServeCore``, the
object the daemon wraps) and sends it the load generator's seeded
request stream (``repro.serve.loadgen``) one request at a time, each as
wire frames: ``encode_request`` -> ``decode_request`` ->
``ServeCore.handle`` -> ``encode_response`` -> ``decode_response``, the
codec calls client and daemon make.  One operation is one request, timed
from its encoding to its decoded reply.

The stream is the generator's own: kinds drawn by weight, a random
socket per placement, a random host per ``run_attack``, and evictions
aimed at VMs whose placement succeeded (the generator's ``settle``
feedback).  The weights are ``bench_serve.py``'s production mix with
the health and capacity weights swapped (see ``MIX``).  Five placements
arrive for each eviction, so the fleet fills and most later placements
are refused through the admission retry ladder.  A refusal (``CAPACITY``,
or ``BUSY``, which one request at a time never triggers) is a correct
answer and counts as a miss in ``goodput_rps``; any other error fails
the run.  The workload seed drives the stream; the service's own seed,
which picks the attack pattern, is fixed, as ``containment`` fixes its
pattern schedule.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import time
import statistics
from typing import Dict, List, Tuple

from repro.serve import LoadgenConfig, LoadMix, ServeCore, ServiceConfig, protocol
from repro.serve import replay_request_log
from repro.serve.loadgen import _Stream

from perfbench.common import Round, RoundWorkload, Span
from perfbench.speed import SpeedProbe

HOSTS = 2
SERVICE_SEED = 0
#: ``bench_serve.py``'s production mix with health (30) and capacity
#: (20) swapped.  Under the production weights the ~0.08 ms health and
#: metrics reads are 49 % of requests, so the median request sits on the
#: step up to the ~0.4 ms capacity reads and p50 jumps with the seed;
#: swapped, the median falls inside the capacity reads.
MIX = LoadMix(place=25, evict=5, attack=1, health=20, capacity=30, metrics=19)
#: ``bench_serve.py``'s attack budget.
ATTACK_BUDGET = 1
REQUESTS = {"full": 4000, "tiny": 100}
WARMUP_REQUESTS = 200
_REFUSED = (protocol.ErrorCode.BUSY.value, protocol.ErrorCode.CAPACITY.value)


def _activations(core: ServeCore) -> int:
    return sum(h.hv.machine.dram.counters.activations for h in core.sm.fleet.hosts)


async def _serve(core: ServeCore, stream: _Stream):
    """Send the whole stream through the codecs and the core, in order.

    Returns the span and the outcome (``"ok"`` or the error code) of
    each request, and (span, activations) of each ``run_attack``."""
    spans: List[Span] = []
    outcomes: List[str] = []
    attacks: List[Tuple[Span, int]] = []
    i = 0
    while (item := stream.take()) is not None:
        op, params = item
        i += 1
        acts0 = _activations(core) if op == "run_attack" else 0
        t0 = time.perf_counter()
        frame = protocol.encode_request(protocol.Request(op=op, params=params, id=i))
        response = await core.handle(protocol.decode_request(frame))
        reply = protocol.decode_response(protocol.encode_response(response))
        spans.append((t0, time.perf_counter()))
        if op == "run_attack":
            attacks.append((spans[-1], _activations(core) - acts0))
        stream.settle(op, params, reply.ok)
        outcomes.append("ok" if reply.ok else reply.error.code.value)
    return spans, outcomes, attacks


class Serve(RoundWorkload):
    def __init__(self, seed: int, shape: str, probe: SpeedProbe):
        super().__init__(probe)
        self.config = ServiceConfig(hosts=HOSTS, backend="vectorized", seed=SERVICE_SEED)
        self.load = LoadgenConfig(
            requests=REQUESTS[shape],
            connections=1,
            window=1,
            seed=seed,
            mix=MIX,
            attack_budget=ATTACK_BUDGET,
            verify_replay=False,
        )
        self.last_core: ServeCore | None = None
        self.refused = 0
        self.sent = 0

    def setup(self) -> None:
        # Warm the lazy tables on a prefix of the stream.
        warm = dataclasses.replace(
            self.load, requests=min(WARMUP_REQUESTS, self.load.requests)
        )
        asyncio.run(_serve(ServeCore(self.config), _Stream(warm, self.config)))

    def round(self) -> Round:
        # Free the last round's service first, so that peak memory is
        # one service's, whatever the collector's timing.
        self.last_core = None
        gc.collect()
        core = ServeCore(self.config)
        spans, outcomes, attacks = asyncio.run(
            _serve(core, _Stream(self.load, self.config))
        )
        # Some attacks pay for lazy set-up (up to ten times a typical
        # attack's time), and how many do changes with the seed, so the
        # rate is that of the median attack.  Attacks on an idle host do
        # no work.
        rates = [n / self.probe.scaled(*span) for span, n in attacks if n]
        acts = sum(n for _, n in attacks)
        codes: Dict[str, int] = {}
        for outcome in outcomes:
            codes[outcome] = codes.get(outcome, 0) + 1
        refused = sum(codes.pop(c, 0) for c in _REFUSED)
        codes.pop("ok", None)
        self.last_core = core
        self.refused += refused
        self.sent += len(outcomes)
        return Round(
            digest=core.sm.state_digest(),
            spans=spans,
            ops=len(outcomes),
            failed=sum(codes.values()),
            refused=refused,
            acts=acts,
            acts_rate=statistics.median(rates) if rates else None,
            # The program counts no hammer accesses; each one opens a
            # row, so this is the activation count again.
            accesses=acts,
            hosts=HOSTS,
            errors=[f"failed requests by code: {codes}"] if codes else [],
        )

    def verify(self) -> List[str]:
        """Replaying the last round's request log through a fresh
        ``FleetStateMachine`` must reproduce the service's digest."""
        assert self.last_core is not None
        sm = self.last_core.sm
        replayed = replay_request_log(self.config, sm.log).state_digest()
        if replayed != sm.state_digest():
            return [f"replay digest {replayed[:16]} != service digest {sm.state_digest()[:16]}"]
        return []

    def start_tracing(self, tracer) -> None:
        super().start_tracing(tracer)
        self.refused = self.sent = 0

    def trace_extra(self) -> dict:
        return {"serve.rejected_frac": self.refused / self.sent if self.sent else 0.0}
