"""Writing event logs to disk and reading them back (§4.4).

The paper's profiler streams events to per-thread buffers that are flushed
to a log file and processed offline.  These helpers persist an
:class:`~repro.eventlog.log.EventLog` using the wire format of
:mod:`repro.eventlog.encode`, so a profiling run and its analysis can be
separated in time and process — exactly the deployment the paper targets
(profile during beta testing, triage races later).
"""

from __future__ import annotations

import os
from typing import Union

from .encode import decode_log, encode_log
from .log import EventLog

__all__ = ["save_log", "load_log"]

PathLike = Union[str, "os.PathLike[str]"]


def save_log(log: EventLog, path: PathLike, *, version: int = 3,
             compress: bool = False) -> int:
    """Write ``log`` to ``path``; return the number of bytes written.

    The write is atomic (temp file + rename) so a crashed analysis never
    sees a torn log, and a failure anywhere — encoding, the write itself,
    or the rename — removes the temp file instead of leaving a stray
    ``.tmp`` behind.  ``version=3`` (the default) writes per-thread
    sections; ``version=2`` selects the segmented wire format, which also
    unlocks ``compress``.
    """
    tmp_path = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp_path, "wb") as handle:
            data = encode_log(log, version=version, compress=compress)
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return len(data)


def load_log(path: PathLike) -> EventLog:
    """Read a log previously written by :func:`save_log`."""
    with open(path, "rb") as handle:
        return decode_log(handle.read())
