"""Serve trajectory point: sustained load through the async daemon.

Drives an in-process ``repro serve`` daemon with the open-loop load
generator and records the serving numbers that gate the trajectory:
sustained req/s, p50/p99 latency, and the rejection rate, written to
``BENCH_serve.json`` at the repo root with a ``runner`` record (CPU
count, python and numpy versions, commit) naming who measured them.

Two kinds of runs:

- **Sustained** (scalar): one >=10k-request run — the headline
  throughput/latency measurement the ``serve_throughput`` trajectory
  gate consumes.
- **Digest** (both backends): smaller seeded runs whose final
  fleet state digest must be **bit-identical** to replaying the
  daemon's own request log through the synchronous
  :class:`~repro.serve.core.FleetStateMachine` — the proof that the
  async service is a faithful linearization of the fleet model on
  every backend.
"""

from __future__ import annotations

import asyncio
import json
import pathlib

from conftest import runner_record

from repro.serve import LoadMix, LoadgenConfig, ServiceConfig, serve_and_load

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_serve.json"

#: The headline sustained run (>=10k requests per the acceptance bar).
SUSTAINED_REQUESTS = 12_000
#: Digest-verification runs per non-headline backend.
DIGEST_REQUESTS = 1_500
#: Production-shaped mix: read-heavy with steady placement churn and
#: rare attacks (placements simulate EPT construction and dominate
#: per-op cost; the mix keeps the daemon busy, not pathological).
MIX = LoadMix(place=25, evict=5, attack=1, health=30, capacity=20, metrics=19)

_RESULTS: dict = {
    "bench": "serve",
    "note": "open-loop load through the async serve daemon; every run's "
    "final fleet digest must replay bit-identically through the "
    "synchronous path",
    "runner": runner_record(),
}


def _record(key: str, payload: dict) -> None:
    _RESULTS[key] = payload
    BENCH_JSON.write_text(json.dumps(_RESULTS, indent=2) + "\n")


def _banner(title: str) -> str:
    rule = "=" * len(title)
    return f"\n{rule}\n{title}\n{rule}"


def _run(backend: str, requests: int):
    service = ServiceConfig(hosts=2, backend=backend, seed=7)
    config = LoadgenConfig(
        requests=requests,
        connections=8,
        window=16,
        seed=7,
        mix=MIX,
        attack_budget=1,
    )
    return asyncio.run(serve_and_load(service, config))


def test_serve_sustained() -> None:
    """The >=10k-request scalar run: throughput, latency, rejections."""
    report = _run("scalar", SUSTAINED_REQUESTS)
    print(_banner(f"Serve: {SUSTAINED_REQUESTS} requests, scalar backend"))
    print(report.render_text())
    payload = report.to_dict()
    payload["backend"] = "scalar"
    _record("serve_throughput", payload)
    assert report.requests >= 10_000, "sustained run fell short of 10k"
    assert report.errors == 0, f"unexpected errors: {report.outcomes}"
    assert report.replay_verified, (
        "async digest diverged from synchronous replay "
        f"({report.server_digest} != {report.replay_digest})"
    )


def test_serve_digest_all_backends() -> None:
    """Replay-digest equality on every backend (smaller seeded runs)."""
    print(_banner(f"Serve: replay digests, {DIGEST_REQUESTS} requests/backend"))
    for backend in ("scalar", "vectorized"):
        report = _run(backend, DIGEST_REQUESTS)
        verdict = "MATCH" if report.replay_verified else "MISMATCH"
        print(
            f"{backend:>10}: {report.rps:7,.0f} req/s  "
            f"digest {report.server_digest[:16]}… replay {verdict}"
        )
        _record(
            f"serve_digest_{backend}",
            {
                "backend": backend,
                "requests": report.requests,
                "rps": round(report.rps, 1),
                "server_digest": report.server_digest,
                "replay_digest": report.replay_digest,
                "replay_verified": report.replay_verified,
            },
        )
        assert report.errors == 0, f"{backend}: errors {report.outcomes}"
        assert report.replay_verified, (
            f"{backend}: async digest diverged from synchronous replay"
        )


if __name__ == "__main__":
    test_serve_sustained()
    test_serve_digest_all_backends()
