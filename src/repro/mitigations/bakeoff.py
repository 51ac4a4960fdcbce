"""The mitigation bake-off: identical seeded fleets, rival defences.

:func:`run_bakeoff` executes one fleet campaign
(:func:`~repro.fleet.cluster.run_cluster_campaign`) per mitigation —
same seed, same arrival trace, same scenario, only
``ClusterConfig.mitigation`` varies — and condenses
each into a comparable entry: containment rate (hosts whose attacker
neither escaped its domains nor corrupted another tenant), blast radius
on containment failure (victim VMs on the worst host), capacity loss,
and activation/refresh overhead relative to the ``none`` baseline when
it is part of the sweep.

Determinism contract: a :class:`BakeoffReport`'s :meth:`digest` is a
pure function of ``(seed, scenario, mitigation set, fleet shape)`` —
identical across backends (the differential-engine bit-identity
contract) and worker counts (per-host seeds derive from host ids).  The
CI ``bakeoff-smoke`` job and the golden fixtures under ``tests/golden/``
hold exactly this line.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro import obs
from repro.errors import MitigationError
from repro.fleet.cluster import ClusterConfig, ClusterReport, run_cluster_campaign
from repro.mitigations.base import make_mitigation, mitigation_names

#: Fuzzer pattern budget where the unmitigated baseline reliably leaks
#: on a small machine (cumulative edge pressure needs ~1500 ACTs/row).
DEFAULT_BUDGET = 150


@dataclass(frozen=True)
class BakeoffConfig:
    """One bake-off, fully described (and picklable)."""

    #: Mitigations to compare; () runs every registered one.
    mitigations: tuple[str, ...] = ()
    hosts: int = 4
    vms: int = 8
    seed: int = 0
    backend: str = "scalar"
    workers: int = 1
    budget: int = DEFAULT_BUDGET
    policy: str = "best-fit"
    scenario: str = "attack"
    storm_errors: int = 20
    sockets: int = 1

    def resolved_mitigations(self) -> tuple[str, ...]:
        """The sweep, in deterministic order; validates names."""
        names = self.mitigations or mitigation_names()
        known = set(mitigation_names())
        unknown = [n for n in names if n not in known]
        if unknown:
            raise MitigationError(
                f"unknown mitigation(s) {unknown}; know {sorted(known)}"
            )
        if len(set(names)) != len(names):
            raise MitigationError(f"duplicate mitigation in sweep: {names}")
        return tuple(names)

    def campaign_config(self, mitigation: str) -> ClusterConfig:
        """The per-mitigation fleet campaign: identical except for the
        defence under test."""
        return ClusterConfig(
            hosts=self.hosts,
            vms=self.vms,
            policy=self.policy,
            scenario=self.scenario,
            backend=self.backend,
            seed=self.seed,
            workers=self.workers,
            budget=self.budget,
            storm_errors=self.storm_errors,
            sockets=self.sockets,
            mitigation=mitigation,
        )

    def to_dict(self) -> dict:
        from dataclasses import asdict

        out = asdict(self)
        out["mitigations"] = list(self.resolved_mitigations())
        return out


def _containment(host_results: list[dict]) -> dict:
    """Condense the attack outcomes of one campaign."""
    attacked = [
        r
        for r in host_results
        if r.get("ok") and r.get("scenario") == "attack" and not r.get("idle")
    ]
    contained = [
        r
        for r in attacked
        if r.get("contained") and r.get("victim_flips", 0) == 0
    ]
    return {
        "attacked_hosts": len(attacked),
        "contained_hosts": len(contained),
        "containment_rate": (
            round(len(contained) / len(attacked), 6) if attacked else 1.0
        ),
        "escaped_flips": sum(r.get("escaped", 0) for r in attacked),
        "victim_flips": sum(r.get("victim_flips", 0) for r in attacked),
        "victim_vms": sum(r.get("victims", 0) for r in attacked),
        # Worst single-host fan-out when containment failed.
        "blast_radius": max(
            (r.get("victims", 0) for r in attacked), default=0
        ),
    }


def _overhead(host_results: list[dict]) -> dict:
    """Activation/refresh totals from the per-host mitigation sections."""
    sections = [
        r["mitigation"] for r in host_results if r.get("ok") and "mitigation" in r
    ]
    acts = sum(s.get("activations", 0) for s in sections)
    refreshes = sum(s.get("refresh_ops", 0) for s in sections)
    return {
        "activations": acts,
        "refresh_ops": refreshes,
        "refreshes_per_kact": round(1000.0 * refreshes / acts, 6) if acts else 0.0,
    }


def _capacity(host_results: list[dict]) -> dict:
    """Capacity accounting (identical on every host: same machine)."""
    for r in host_results:
        if r.get("ok") and "mitigation" in r:
            return dict(r["mitigation"]["capacity"])
    return {}


def _entry(name: str, report: ClusterReport, host_results: list[dict]) -> dict:
    sections = [
        r["mitigation"] for r in host_results if r.get("ok") and "mitigation" in r
    ]
    shared = bool(sections[0].get("shared_domains")) if sections else False
    s = report.summary
    return {
        "mitigation": name,
        "shared_domains": shared,
        "fleet": {
            "digest": report.merge_digest,
            "hosts": s["hosts"],
            "hosts_ok": s["hosts_ok"],
            "unplanned_failures": report.unplanned_failures,
            "audit_clean": s["audit_clean"],
            "acceptance_rate": round(s["acceptance_rate"], 6),
            "utilization": round(
                s["placed_bytes"] / s["guest_capacity_bytes"], 6
            ),
        },
        "containment": _containment(host_results),
        "capacity": _capacity(host_results),
        "overhead": _overhead(host_results),
    }


@dataclass
class BakeoffReport:
    """One bake-off's comparable per-mitigation entries."""

    config: dict
    entries: list[dict] = field(default_factory=list)

    def entry(self, name: str) -> dict:
        for e in self.entries:
            if e["mitigation"] == name:
                return e
        raise MitigationError(f"no bake-off entry for {name!r}")

    @property
    def clean(self) -> bool:
        """True when every campaign ran without unplanned failures and
        with clean (mitigation-aware) audits."""
        return all(
            e["fleet"]["unplanned_failures"] == 0 and e["fleet"]["audit_clean"]
            for e in self.entries
        )

    # -- determinism contract -------------------------------------------

    def to_json(self) -> dict:
        return {"config": self.config, "entries": self.entries}

    def _scrubbed(self) -> dict:
        """Canonical form minus execution details (same rule as the
        campaign merge digest: workers and backend are *how* the
        campaign ran, never *what* it computed)."""
        doc = self.to_json()
        doc["config"] = {
            k: v
            for k, v in doc["config"].items()
            if k not in ("workers", "backend")
        }
        return doc

    def digest(self) -> str:
        """sha256 over the scrubbed canonical form — identical across
        backends and worker counts for the same seed and sweep."""
        blob = json.dumps(self._scrubbed(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def mitigation_digest(self, name: str) -> str:
        """Per-mitigation digest (what ``tests/golden/`` pins): hashes
        one entry plus the scrubbed config minus the sweep list, so a
        golden only moves when that mitigation's behaviour (or the
        shared scenario) moves — never when a rival joins the sweep."""
        config = {
            k: v
            for k, v in self._scrubbed()["config"].items()
            if k != "mitigations"
        }
        doc = {"config": config, "entry": self.entry(name)}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- presentation ----------------------------------------------------

    def render_table(self) -> str:
        """The CLI's per-mitigation comparison table."""
        header = (
            f"{'mitigation':<14}{'contained':>10}{'escaped':>9}"
            f"{'victims':>9}{'blast':>7}{'loss %':>8}{'ref/kACT':>10}"
            f"{'ACT ovh':>9}"
        )
        lines = [
            "mitigation bake-off "
            f"(hosts={self.config['hosts']} vms={self.config['vms']} "
            f"seed={self.config['seed']} budget={self.config['budget']} "
            f"scenario={self.config['scenario']})",
            header,
            "-" * len(header),
        ]
        base_acts = None
        for e in self.entries:
            if e["mitigation"] == "none":
                base_acts = e["overhead"]["activations"] or None
        for e in self.entries:
            c = e["containment"]
            cap = e["capacity"]
            ovh = e["overhead"]
            acts = ovh["activations"]
            rel = (
                f"{acts / base_acts:>8.3f}x"
                if base_acts and e["mitigation"] != "none"
                else f"{'-':>9}"
            )
            lines.append(
                f"{e['mitigation']:<14}"
                f"{c['contained_hosts']:>5}/{c['attacked_hosts']:<4}"
                f"{c['escaped_flips']:>9}"
                f"{c['victim_flips']:>9}"
                f"{c['blast_radius']:>7}"
                f"{100 * cap.get('loss_fraction', 0.0):>8.3f}"
                f"{ovh['refreshes_per_kact']:>10.3f}"
                f"{rel}"
            )
        if not self.clean:
            lines.append("WARNING: a campaign had unplanned failures or a "
                         "dirty audit; entries above are suspect")
        return "\n".join(lines)


def run_bakeoff(config: BakeoffConfig) -> BakeoffReport:
    """Run one campaign per mitigation and merge the comparison."""
    names = config.resolved_mitigations()
    report = BakeoffReport(config=config.to_dict())
    for name in names:
        make_mitigation(name)  # fail fast on bad knobs before the fleet boots
        results: list[dict] = []
        fleet_report = run_cluster_campaign(
            config.campaign_config(name), on_result=results.append
        )
        results.sort(key=lambda r: r["host_id"])
        entry = _entry(name, fleet_report, results)
        report.entries.append(entry)
        if obs.ENABLED:
            obs.emit(
                obs.BakeoffEvent(
                    mitigation=name,
                    containment_rate=entry["containment"]["containment_rate"],
                    escaped_flips=entry["containment"]["escaped_flips"],
                    victim_flips=entry["containment"]["victim_flips"],
                    loss_fraction=entry["capacity"].get("loss_fraction", 0.0),
                    refreshes_per_kact=entry["overhead"]["refreshes_per_kact"],
                )
            )
    return report


__all__ = ["BakeoffConfig", "BakeoffReport", "run_bakeoff", "DEFAULT_BUDGET"]
