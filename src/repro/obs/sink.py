"""Telemetry sinks: where emitted events go.

Events are plain dicts with at least an ``event`` kind and a ``seq``
number (assigned by the registry, so file ordering is reproducible even
when nested spans finish out of start order). The JSON-lines format is
one ``json.dumps(..., sort_keys=True)`` object per line — greppable,
streamable, and round-trippable via :func:`read_events`.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from typing import IO, Dict, List, Optional, Union

__all__ = [
    "TelemetrySink",
    "JsonLinesSink",
    "MemorySink",
    "read_events",
    "read_events_tolerant",
]


class TelemetrySink:
    """Interface: receives event dicts from a registry."""

    def write(self, event: Dict[str, object]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        pass


class MemorySink(TelemetrySink):
    """Keeps events in a list — the test / in-process analysis sink."""

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []
        self.closed = False

    def write(self, event: Dict[str, object]) -> None:
        self.events.append(event)

    def close(self) -> None:
        self.closed = True


class JsonLinesSink(TelemetrySink):
    """Appends one JSON object per event to a file (or file-like).

    Path mode is durable: events stream into a temp file in the
    destination's directory, and :meth:`close` fsyncs and atomically
    renames it into place — a reader never observes a half-written
    trace, and a crash mid-run leaves any previous trace at the path
    intact. Unwritable destinations still fail here in the constructor
    (with the underlying :class:`OSError`), before any work runs.
    """

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            if os.path.isdir(destination):
                raise IsADirectoryError(
                    errno.EISDIR, "destination is a directory", destination
                )
            self.path: Optional[str] = destination
            fd, self._temp_path = tempfile.mkstemp(
                dir=os.path.dirname(destination) or ".",
                prefix=os.path.basename(destination) + ".",
                suffix=".tmp",
            )
            self._handle: IO[str] = os.fdopen(fd, "w")
            self._owns_handle = True
        else:
            self.path = None
            self._temp_path = None
            self._handle = destination
            self._owns_handle = False

    def write(self, event: Dict[str, object]) -> None:
        self._handle.write(json.dumps(event, sort_keys=True, default=str))
        self._handle.write("\n")

    def close(self) -> None:
        if self._handle.closed:
            return
        self._handle.flush()
        if self._owns_handle:
            os.fsync(self._handle.fileno())
            self._handle.close()
            assert self.path is not None and self._temp_path is not None
            os.replace(self._temp_path, self.path)


def read_events(path: str) -> List[Dict[str, object]]:
    """Load a JSON-lines trace back into event dicts (blank lines skipped).

    A truncated *final* line — the signature a crash mid-write leaves on
    an append-mode trace — is silently dropped rather than raised, so a
    post-mortem ``repro report`` can always read what did land. Garbage
    anywhere else (including a file whose only line is unparseable — a
    non-trace, not a casualty) still raises ``json.JSONDecodeError``.
    Use :func:`read_events_tolerant` to learn how many records were
    dropped.
    """
    events, _ = read_events_tolerant(path)
    return events


def read_events_tolerant(path: str):
    """Like :func:`read_events`, returning ``(events, truncated_count)``.

    ``truncated_count`` is how many trailing partial records were
    skipped (0 or 1 — only the final line can be a mid-write casualty).
    """
    events: List[Dict[str, object]] = []
    truncated = 0
    with open(path) as handle:
        lines = handle.readlines()
    last_content = -1
    for index in range(len(lines) - 1, -1, -1):
        if lines[index].strip():
            last_content = index
            break
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            # Tail tolerance needs evidence the file IS a trace: at
            # least one well-formed record before the broken tail.
            if index == last_content and events:
                truncated += 1
            else:
                raise
    return events, truncated

