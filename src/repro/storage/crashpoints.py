"""Named crash-injection points for the durability tests.

The storage layer calls :func:`crashpoint` at every place where a real
crash would leave distinguishable on-disk state (mid-record, pre-fsync,
between checkpoint temp-write and rename, ...).  Tests *arm* a point by
name and the next passage either raises :class:`SimulatedCrash` (in-process
tests) or hard-exits the interpreter without flushing buffers (subprocess
tests, the closest a cooperative process gets to SIGKILL).  Unarmed points
cost one dictionary lookup and take no lock.

This mirrors PR 1's seeded fault schedules: crashes are deterministic,
nameable, and replayable, so every recovery test pins down exactly which
torn state it proves recoverable.

Subprocesses are armed through the environment::

    ADLP_CRASHPOINT=wal.mid_record          # exit on first passage
    ADLP_CRASHPOINT=wal.pre_fsync:7         # exit on the 7th passage

(environment arming always uses the ``exit`` action, since raising inside
an arbitrary child process would just produce a traceback).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional

#: Exit status used by the ``exit`` action, chosen to mimic SIGKILL (137 =
#: 128 + 9) so harnesses treat a simulated crash like a real kill.
CRASH_EXIT_STATUS = 137

#: Every crashpoint the storage layer defines.  ``arm`` validates against
#: this set so a typo in a test fails loudly instead of never firing.
KNOWN_CRASHPOINTS: FrozenSet[str] = frozenset(
    {
        "wal.mid_record",  # half of a record's bytes written
        "wal.batch_mid",  # between two records of one group-commit batch
        "wal.pre_fsync",  # record fully written+flushed, not fsynced
        "wal.pre_rotate",  # old segment sealed, new segment not yet created
        "checkpoint.partial",  # temp checkpoint file half-written
        "checkpoint.pre_rename",  # temp file complete, rename not performed
        "spill.mid_record",  # half of a spill-file record written
    }
)


class SimulatedCrash(BaseException):
    """An injected crash.

    Derives from :class:`BaseException` so the blanket ``except Exception``
    handlers that keep the data plane alive (logging thread, endpoint
    serving loops) cannot absorb it -- exactly like a real crash, it takes
    the thread down.
    """


@dataclass
class _Arming:
    action: str  # "raise" | "exit"
    fire_on: int  # 1-based passage count that triggers the crash
    passages: int = 0


_armed: Dict[str, _Arming] = {}
_lock = threading.Lock()


def arm(name: str, action: str = "raise", fire_on: int = 1) -> None:
    """Arm crashpoint ``name`` to fire on its ``fire_on``-th passage.

    :param action: ``"raise"`` raises :class:`SimulatedCrash`; ``"exit"``
        calls :func:`os._exit` (no atexit, no buffer flush -- the
        in-process equivalent of SIGKILL).
    """
    if name not in KNOWN_CRASHPOINTS:
        raise ValueError(f"unknown crashpoint {name!r}")
    if action not in ("raise", "exit"):
        raise ValueError(f"unknown crashpoint action {action!r}")
    if fire_on < 1:
        raise ValueError("fire_on is 1-based and must be >= 1")
    with _lock:
        _armed[name] = _Arming(action=action, fire_on=fire_on)


def reset() -> None:
    """Disarm every crashpoint (tests call this in teardown)."""
    with _lock:
        _armed.clear()


def passages(name: str) -> int:
    """How often an armed crashpoint has been passed (0 if unarmed)."""
    with _lock:
        arming = _armed.get(name)
        return arming.passages if arming is not None else 0


def crashpoint(name: str, flush: Optional[Callable[[], None]] = None) -> None:
    """Crash here if the point is armed and due; no-op otherwise.

    ``flush`` runs on every passage of an *armed* point, before the crash
    decision: a writer passes its file's ``flush`` so the crash leaves the
    bytes written so far on disk instead of in a Python buffer, without
    paying a flush per passage when nothing is armed.
    """
    if name not in _armed:
        return
    if flush is not None:
        flush()
    with _lock:
        arming = _armed.get(name)
        if arming is None:
            return
        arming.passages += 1
        due = arming.passages == arming.fire_on
        action = arming.action
    if not due:
        return
    if action == "exit":
        os._exit(CRASH_EXIT_STATUS)
    raise SimulatedCrash(name)


def _arm_from_env(value: Optional[str]) -> None:
    if not value:
        return
    name, _, count = value.partition(":")
    arm(name, action="exit", fire_on=int(count) if count else 1)


_arm_from_env(os.environ.get("ADLP_CRASHPOINT"))
