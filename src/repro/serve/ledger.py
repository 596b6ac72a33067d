"""Crash-safe multi-tenant budget ledger: a WAL in front of analyst accounts.

For a differentially private query service the budget is a *correctness*
invariant, not bookkeeping: an analyst must never spend more than their ε cap
— not across threads, not across crashes, not across restarts.  The in-memory
half of that guarantee is :class:`repro.privacy.accountant.AnalystAccount`
(lock-protected charge-or-refuse); this module adds the durable half, an
append-only JSON-lines **write-ahead log**:

* **charge-before-answer** — a charge is appended to the WAL and ``fsync``\\ ed
  *before* the in-memory account moves and long before any query is answered.
  A crash between the fsync and the answer therefore *wastes* budget (the
  analyst paid for an answer they never received) but can never *under-count*
  it: on restart the replayed spend includes the charge.  Wasting is safe —
  the privacy guarantee only bounds spend from above;
* **fail-closed writes** — if the WAL cannot be written (disk error, injected
  ``wal-io-error`` fault) the charge is rolled back byte-for-byte (the file is
  truncated to its pre-write length) and the in-memory account is untouched:
  no durable record, no spend, no answer;
* **replay on startup** — accounts are rebuilt by summing the WAL's charges
  in file order.  Every ε travels as ``float.hex()`` alongside its decimal
  rendering, so a replayed spend is **bitwise identical** to the pre-crash
  in-memory total (same values, same summation order, IEEE-754 float64);
* **torn-tail tolerance** — a crash *mid-append* leaves a partial last line.
  Replay discards it and truncates the file back to the last complete record,
  so the next append starts on a clean line.  A malformed record anywhere
  *before* the tail is real corruption and raises :class:`LedgerError` — a
  budget ledger must refuse to guess.

The WAL is human-auditable: one JSON object per line, ``kind`` of ``"cap"``
(sets an analyst's cap) or ``"charge"`` (spends ε), each stamped with a
monotonically increasing ``seq`` and naming its ``analyst``.  Both fields are
mandatory: replay raises :class:`LedgerError` on a record missing either.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..obs import counter_add, trace_span
from ..privacy.accountant import BUDGET_TOLERANCE, AnalystAccount

__all__ = ["BudgetExceeded", "LedgerError", "BudgetLedger"]


class BudgetExceeded(Exception):
    """A charge was refused: it would push the analyst past their ε cap."""

    def __init__(self, analyst: str, requested: float, remaining: float) -> None:
        self.analyst = analyst
        self.requested = float(requested)
        self.remaining = float(remaining)
        super().__init__(
            f"analyst {analyst!r} requested epsilon {requested:.6g} with only "
            f"{remaining:.6g} remaining"
        )


class LedgerError(ValueError):
    """The WAL is corrupt in a way replay must not paper over."""


def _hex(value: float) -> str:
    return float(value).hex()


class BudgetLedger:
    """Per-analyst ε accounts backed by an append-only, fsync-on-charge WAL.

    Parameters
    ----------
    path:
        The WAL file.  Created (with a ``cap`` record per later analyst) if
        missing; replayed if present.
    default_cap:
        The ε cap given to an analyst on their first charge (explicit
        :meth:`set_cap` records override it, and are themselves WAL-logged so
        they survive restarts).
    io_hook:
        Optional ``callable(record: dict)`` invoked *before* each append;
        raising :class:`OSError` from it simulates a WAL write failure (the
        deterministic ``wal-io-error`` fault).  The charge then fails closed.

    All public methods are thread-safe: one ledger lock orders the
    check / append / fsync / commit sequence, so no interleaving of concurrent
    charges can exceed a cap or interleave bytes within the WAL.
    """

    def __init__(
        self,
        path: Union[str, Path],
        default_cap: float = 1.0,
        io_hook: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> None:
        if default_cap <= 0:
            raise ValueError("default_cap must be positive")
        self.path = str(path)
        self.default_cap = float(default_cap)
        self.io_hook = io_hook
        self._lock = threading.RLock()
        self._accounts: Dict[str, AnalystAccount] = {}
        self._seq = 0
        self._replayed_records = 0
        self._replay()
        # Line-buffered append handle; every record is explicitly flushed and
        # fsynced anyway, buffering only batches the in-process copy.
        self._handle = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _replay(self) -> None:
        """Rebuild accounts from the WAL; truncate a torn tail in place."""
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return
        valid_bytes = 0
        records: List[Dict[str, object]] = []
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                # No terminating newline: the append was cut mid-line by a
                # crash.  Everything before this line replays; the tail is
                # dropped below.
                break
            line = raw[offset : newline + 1]
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict) or "kind" not in record:
                    raise ValueError("not a ledger record")
            except ValueError as exc:
                raise LedgerError(
                    f"ledger {self.path}: corrupt record at byte {offset}: {exc}"
                ) from exc
            records.append(record)
            offset = newline + 1
            valid_bytes = offset
        if valid_bytes < len(raw):
            counter_add("ledger.torn_tail_truncated")
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_bytes)
        for record in records:
            self._apply(record)
        self._replayed_records = len(records)
        counter_add("ledger.records_replayed", len(records))

    def _apply(self, record: Dict[str, object]) -> None:
        """Fold one replayed record into the in-memory accounts.

        Charges are applied unconditionally — they were admitted under the
        cap rules when written, and replay must reproduce the exact durable
        history, not re-litigate it.  ε values come from the hex field so the
        rebuilt totals are bit-for-bit the pre-crash ones.
        """
        kind = record.get("kind")
        for name in ("seq", "analyst"):
            if record.get(name) is None:
                raise LedgerError(
                    f"ledger {self.path}: record after seq {self._seq} has no {name!r}"
                )
        seq = int(record["seq"])
        if seq != self._seq + 1:
            raise LedgerError(
                f"ledger {self.path}: sequence gap (expected {self._seq + 1}, "
                f"found {seq}) — records missing or reordered"
            )
        analyst = str(record["analyst"])
        if kind == "cap":
            cap = float.fromhex(str(record["cap_hex"]))
            account = self._accounts.get(analyst)
            if account is None:
                self._accounts[analyst] = AnalystAccount(analyst, cap=cap)
            else:
                account.cap = cap
        elif kind == "charge":
            epsilon = float.fromhex(str(record["epsilon_hex"]))
            account = self._account(analyst)
            # Direct state restore (not try_charge): same float additions in
            # the same order as the original grants.
            account.spent += epsilon
            account.charges += 1
        else:
            raise LedgerError(f"ledger {self.path}: unknown record kind {kind!r}")
        self._seq = seq

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def _append(self, record: Dict[str, object]) -> None:
        """Durably append one record, or leave the WAL byte-identical.

        The pre-write offset is captured so a partial write (exception after
        some bytes landed) can be truncated away — otherwise the *next*
        append would glue onto the torn line and corrupt the log for every
        future replay.
        """
        if self.io_hook is not None:
            self.io_hook(record)
        start = self._handle.tell()
        try:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except BaseException:
            try:
                self._handle.truncate(start)
                self._handle.seek(start)
            except OSError:  # pragma: no cover - disk gone entirely
                pass
            raise
        counter_add("ledger.records_appended")

    def _account(self, analyst: str) -> AnalystAccount:
        account = self._accounts.get(analyst)
        if account is None:
            account = AnalystAccount(analyst, cap=self.default_cap)
            self._accounts[analyst] = account
        return account

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def charge(self, analyst: str, epsilon: float, request_id: Optional[int] = None) -> float:
        """Charge ``epsilon`` against ``analyst``; returns the remaining budget.

        Ordering is the crash-safety contract: refusal check → WAL append →
        fsync → in-memory commit.  Raises :class:`BudgetExceeded` on refusal
        (nothing written, nothing spent) and propagates :class:`OSError` on a
        WAL write failure (rolled back, nothing spent).  Only a charge that
        is durable on disk is ever granted.
        """
        epsilon = float(epsilon)
        if epsilon <= 0:
            raise ValueError("charge epsilon must be positive")
        with self._lock, trace_span("ledger.charge", analyst=analyst):
            account = self._account(analyst)
            if account.spent + epsilon > account.cap + BUDGET_TOLERANCE:
                counter_add("ledger.refusals")
                raise BudgetExceeded(analyst, epsilon, account.cap - account.spent)
            record: Dict[str, object] = {
                "kind": "charge",
                "seq": self._seq + 1,
                "analyst": analyst,
                "epsilon": epsilon,
                "epsilon_hex": _hex(epsilon),
            }
            if request_id is not None:
                record["request"] = int(request_id)
            self._append(record)  # may raise OSError: fail closed, spend nothing
            granted = account.try_charge(epsilon)
            assert granted, "pre-checked charge must be granted under the ledger lock"
            self._seq += 1
            counter_add("ledger.charges")
            return account.cap - account.spent

    def try_charge(self, analyst: str, epsilon: float,
                   request_id: Optional[int] = None) -> bool:
        """:meth:`charge`, with refusal as ``False`` instead of an exception."""
        try:
            self.charge(analyst, epsilon, request_id=request_id)
            return True
        except BudgetExceeded:
            return False

    def set_cap(self, analyst: str, cap: float) -> None:
        """Set (and WAL-log) an analyst's ε cap; existing spend is kept."""
        cap = float(cap)
        if cap <= 0:
            raise ValueError("cap must be positive")
        with self._lock:
            record = {
                "kind": "cap",
                "seq": self._seq + 1,
                "analyst": str(analyst),
                "cap": cap,
                "cap_hex": _hex(cap),
            }
            self._append(record)
            account = self._accounts.get(str(analyst))
            if account is None:
                self._accounts[str(analyst)] = AnalystAccount(str(analyst), cap=cap)
            else:
                account.cap = cap
            self._seq += 1

    # ------------------------------------------------------------------
    def spend(self, analyst: str) -> float:
        """Total ε charged to ``analyst`` so far (0.0 for unknown analysts)."""
        with self._lock:
            account = self._accounts.get(analyst)
            return account.spent if account is not None else 0.0

    def spend_hex(self, analyst: str) -> str:
        """The spend as ``float.hex()`` — the bitwise-comparable form."""
        return _hex(self.spend(analyst))

    def remaining(self, analyst: str) -> float:
        """Budget left for ``analyst`` (the full default cap if unknown)."""
        with self._lock:
            account = self._accounts.get(analyst)
            if account is None:
                return self.default_cap
            return account.cap - account.spent

    def accounts(self) -> Dict[str, Dict[str, object]]:
        """Per-analyst ``{spent, spent_hex, cap, remaining, charges}`` report."""
        with self._lock:
            out: Dict[str, Dict[str, object]] = {}
            for analyst, account in sorted(self._accounts.items()):
                snap: Dict[str, object] = dict(account.snapshot())
                snap["spent_hex"] = _hex(float(snap["spent"]))
                out[analyst] = snap
            return out

    @property
    def seq(self) -> int:
        """Sequence number of the last durable record."""
        with self._lock:
            return self._seq

    @property
    def replayed_records(self) -> int:
        """How many records the constructor replayed from an existing WAL."""
        return self._replayed_records

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the append handle (idempotent); the WAL stays on disk."""
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "BudgetLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
