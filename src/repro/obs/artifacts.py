"""Shared artifact plumbing for exported observability files.

Every ``--*-out`` flag ultimately funnels through here: parent
directories are created on demand (``--metrics-out runs/today/m.json``
just works) and OS-level failures surface as structured
:class:`~repro.errors.ObservabilityError`\\ s — which the CLI renders as
``error: ...`` with exit code 2 — instead of a raw ``FileNotFoundError``
traceback. Reading goes through here too: one reader per artifact shape,
:func:`read_json_document` for a JSON document and
:func:`read_ndjson_records` for an append-only NDJSON stream.
"""

from __future__ import annotations

import json
import os
from typing import Any, List, Type

from repro.errors import ObservabilityError


def ensure_parent_dir(
    path,
    what: str = "artifact",
    exc_type: Type[Exception] = ObservabilityError,
) -> None:
    """Create the parent directory of ``path`` if it is missing.

    Raises ``exc_type`` (default :class:`ObservabilityError`) when the
    directory cannot be created — e.g. a path component is an existing
    file, or permissions forbid it.
    """
    directory = os.path.dirname(os.fspath(path))
    if not directory:
        return
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise exc_type(f"cannot create directory for {what} {path}: {exc}") from exc


def open_artifact(
    path,
    what: str = "artifact",
    exc_type: Type[Exception] = ObservabilityError,
):
    """Open ``path`` for text writing, creating parent directories.

    The returned handle is a normal file object; failures raise
    ``exc_type`` with a human-readable message naming the artifact.
    """
    ensure_parent_dir(path, what, exc_type)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise exc_type(f"cannot write {what} {path}: {exc}") from exc


def read_json_document(path, what: str) -> Any:
    """Read and decode one JSON document named ``what`` in errors."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ObservabilityError(f"cannot read {what} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"{path}: invalid JSON ({exc.msg})")


def read_ndjson_records(path, what: str) -> List[Any]:
    """Read an NDJSON stream named ``what`` in errors into records.

    A truncated *final* line (process killed mid-write) is dropped;
    an invalid line anywhere else is an error.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ObservabilityError(f"cannot read {what} {path}: {exc}")
    records: List[Any] = []
    for number, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            records.append(json.loads(raw))
        except json.JSONDecodeError as exc:
            if number == len(lines):
                break
            raise ObservabilityError(
                f"{path}: line {number} is invalid JSON ({exc.msg})"
            )
    return records
