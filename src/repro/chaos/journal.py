"""Checkpoint journal for fleet campaigns: JSONL of completed shards.

A campaign writing a journal appends one line per completed host shard,
flushed and fsynced before the supervisor moves on — so a campaign that
is SIGKILLed mid-run leaves a journal holding exactly the shards that
finished.  ``repro fleet --resume <journal>`` then replays: placement
re-runs deterministically (it is a pure function of the config), the
journaled shards are loaded instead of re-executed, and only the
missing shards run.  Because every shard result is a pure function of
``(host seed, vm specs, scenario, chaos plan)``, the resumed campaign's
merged report is bit-identical to an uninterrupted run's.

The journal's header line carries a digest of the campaign config
(minus the execution-detail fields, ``workers``/``backend``) so a
journal can never silently resume a *different* campaign; a mismatch
raises :class:`~repro.errors.ChaosError`.  A truncated final line —
the SIGKILL landed mid-write — is tolerated and simply dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.errors import ChaosError
from repro.log import get_logger

_log = get_logger("chaos.journal")

#: Journal format tag + version (header line).
JOURNAL_MAGIC = "repro.fleet.chaos-journal"
JOURNAL_VERSION = 1


def config_digest(config_doc: Dict[str, Any]) -> str:
    """Identity of a campaign for journal matching: sha256 over the
    canonical config JSON minus execution details (worker count and
    engine backend do not change results, so a journal written at
    ``--workers 4`` resumes fine at ``--workers 1``)."""
    doc = {
        k: v for k, v in config_doc.items() if k not in ("workers", "backend")
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class CampaignJournal:
    """Append-only JSONL checkpoint log for one campaign."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def open(self, digest: str) -> "CampaignJournal":
        """Open for appending; a fresh file gets the header line, an
        existing one (resume) must match *digest*."""
        if self.path.exists() and self.path.stat().st_size > 0:
            self._validate_header(digest)
            self._fh = open(self.path, "a", encoding="utf-8")
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._write_line(
                {
                    "journal": JOURNAL_MAGIC,
                    "version": JOURNAL_VERSION,
                    "config_digest": digest,
                }
            )
        return self

    def record(self, result: Dict[str, Any]) -> None:
        """Checkpoint one completed shard (flushed + fsynced: the line
        survives a SIGKILL that lands right after)."""
        if self._fh is None:
            raise ChaosError("journal is not open")
        self._write_line(
            {
                "shard": result["host_id"],
                "seed": result.get("seed"),
                "result": result,
            }
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _write_line(self, doc: Dict[str, Any]) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _validate_header(self, digest: str) -> None:
        _read_journal(self.path, digest)

    @classmethod
    def load(
        cls, path: str | Path, digest: Optional[str] = None
    ) -> Dict[int, Dict[str, Any]]:
        """Completed shard results keyed by host id.

        Validates the header against *digest* when given; tolerates a
        truncated final line (mid-write SIGKILL); a later checkpoint for
        the same host wins (re-run after a resume race).  Any other
        file or record this module did not write raises
        :class:`ChaosError`.
        """
        p = Path(path)
        completed: Dict[int, Dict[str, Any]] = {}
        for n, line in enumerate(_read_journal(p, digest), start=2):
            try:
                doc = json.loads(line)
            except ValueError:
                _log.warning("journal %s: dropping truncated line %d", p, n)
                break
            if not isinstance(doc, dict) or "shard" not in doc:
                continue
            result = doc.get("result")
            if (
                type(doc["shard"]) is not int
                or not isinstance(result, dict)
                or type(result.get("host_id")) is not int
            ):
                raise ChaosError(f"journal {p} line {n} is not a checkpoint")
            completed[doc["shard"]] = result
        return completed


def _read_journal(path: Path, digest: Optional[str] = None) -> list[str]:
    """The record lines after a valid header (matching *digest* when
    given), or a typed refusal: unreadable bytes, a directory, a
    foreign header."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ChaosError(f"cannot read journal {path}: {exc}") from exc
    try:
        header = json.loads(lines[0] if lines else "")
    except ValueError as exc:
        raise ChaosError(f"journal {path} has a corrupt header line") from exc
    if not isinstance(header, dict) or header.get("journal") != JOURNAL_MAGIC:
        raise ChaosError(f"{path} is not a campaign journal")
    if header.get("version") != JOURNAL_VERSION:
        raise ChaosError(
            f"journal {path} has unsupported version {header.get('version')!r}"
        )
    if digest is not None and header.get("config_digest") != digest:
        raise ChaosError(
            f"journal {path} was written by a different campaign "
            f"(config digest {header.get('config_digest')!r} != {digest!r})"
        )
    return lines[1:]
