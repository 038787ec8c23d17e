"""JSON-lines measurement traces.

Format (one JSON object per line):

* line 1 — header: ``{"type": "badabing-trace", "version": 1,
  "slot_width": ..., "n_slots": ..., "p": ..., "metadata": {...},
  "experiments": [[start, length], ...]}``
* following lines — probes: ``{"slot": ..., "t": send_time,
  "n": n_packets, "owds": [...], "obl": owd_before_loss-or-null}``

The format is self-contained: everything estimation needs (schedule and
probe observations) is in the file, so traces can be shipped between
machines and re-analyzed with different §6.1 marking parameters.

Alongside the JSONL format there is a packed binary variant
(:func:`save_measurement_binary` / :func:`load_measurement_binary`): the
same measurement as a structure-of-arrays ``.npz`` archive, written and
read in one shot instead of one JSON object per probe, and round-trips
exactly (float bit patterns preserved).
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Union

from repro import profiling as _profiling
from repro.config import MarkingConfig
from repro.core.estimators import estimate_from_counter
from repro.core.marking import MarkingResult
from repro.core.records import ExperimentOutcome, ProbeRecord
from repro.core.result import BadabingResult
from repro.core.schedule import Experiment
from repro.core.validation import report_from_counter
from repro.errors import ConfigurationError, TraceFormatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.badabing import BadabingTool

FORMAT_NAME = "badabing-trace"
FORMAT_VERSION = 1

PathLike = Union[str, Path]


@dataclass
class TraceDiagnostic:
    """One corrupt line skipped while loading a trace in recovery mode."""

    line_number: int
    reason: str
    snippet: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"line {self.line_number}: {self.reason} ({self.snippet})"


@dataclass(frozen=True)
class _ProbeColumns:
    """What :func:`reestimate` derives from the probes and experiments alone.

    ``probes`` and ``experiments`` are copies of the lists the rest was
    built from: the memo is reused only while they equal the measurement's
    current lists. The arrays are read-only.
    """

    probes: List[ProbeRecord]
    experiments: List[Experiment]
    arrays: Any  # repro.core.batch.ProbeArrays
    starts: Any  # np.ndarray, int64
    lengths: Any  # np.ndarray, int64
    #: One past the largest slot any probe or experiment covers.
    reach: int
    #: The records' own slot ints, in probe order.
    slots: List[int]
    n_probes_sent: int
    n_packets: int

    @classmethod
    def build(
        cls, probes: List[ProbeRecord], experiments: List[Experiment]
    ) -> "_ProbeColumns":
        from repro.core import batch

        arrays = batch.ProbeArrays.from_records(probes)
        starts, lengths = batch.experiment_arrays(experiments)
        for column in (*vars(arrays).values(), starts, lengths):
            column.flags.writeable = False
        slots = [probe.slot for probe in probes]
        return cls(
            probes=list(probes),
            experiments=list(experiments),
            arrays=arrays,
            starts=starts,
            lengths=lengths,
            # The batch stages index arrays by slot number, so a corrupt
            # slot far past the window would allocate memory in proportion
            # to its value; reestimate compares this with n_slots on every
            # call.
            reach=max(
                int(arrays.slot.max()) + 1 if len(arrays) else 0,
                int((starts + lengths).max()) if len(starts) else 0,
            ),
            slots=slots,
            n_probes_sent=len(set(slots)),
            n_packets=sum(probe.n_packets for probe in probes),
        )


@dataclass
class Measurement:
    """A persisted (or persistable) measurement: schedule + probe records."""

    slot_width: float
    n_slots: int
    p: float
    experiments: List[Experiment]
    probes: List[ProbeRecord]
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: Corrupt lines skipped by a recovery-mode load (empty otherwise).
    diagnostics: List[TraceDiagnostic] = field(default_factory=list)

    # Single-entry memo of reestimate's probe columns (a _ProbeColumns or
    # None). Unannotated, so it is not a dataclass field and stays out of
    # ==, repr, asdict and replace. Copies and pickles drop it
    # (__getstate__): a copied array would come back writeable.
    _columns = None

    def _probe_columns(self) -> _ProbeColumns:
        """The memo, rebuilt unless its saved lists equal the current ones.

        The list compare is C-level and short-cuts on identity, so an
        unchanged measurement costs one pass over two lists of pointers;
        a record replaced by an equal one still reuses the memo.
        """
        memo = self._columns
        if (
            memo is None
            or memo.probes != self.probes
            or memo.experiments != self.experiments
        ):
            memo = self._columns = _ProbeColumns.build(
                self.probes, self.experiments
            )
        return memo

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_columns", None)
        return state

    def outcomes(self, slot_states: Mapping[int, bool]) -> List[ExperimentOutcome]:
        """Assemble y_i values from marked slot states."""
        outcomes: List[ExperimentOutcome] = []
        for experiment in self.experiments:
            bits = []
            for slot in experiment.slots:
                state = slot_states.get(slot)
                if state is None:
                    break
                bits.append(int(state))
            else:
                outcomes.append(
                    ExperimentOutcome(experiment.start_slot, tuple(bits))
                )
        return outcomes


def measurement_from_tool(
    tool: BadabingTool, metadata: Optional[Dict[str, Any]] = None
) -> Measurement:
    """Snapshot a finished (or in-progress) BADABING tool."""
    config = tool.config
    return Measurement(
        slot_width=config.probe.slot,
        n_slots=config.n_slots,
        p=config.p,
        experiments=list(tool.schedule.experiments),
        probes=tool.probe_records(),
        metadata=dict(metadata or {}),
    )


def _header_line(
    slot_width: float,
    n_slots: int,
    p: float,
    experiments: List[Experiment],
    metadata: Dict[str, Any],
) -> str:
    header = {
        "type": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "slot_width": slot_width,
        "n_slots": n_slots,
        "p": p,
        "metadata": metadata,
        "experiments": [
            [experiment.start_slot, experiment.length]
            for experiment in experiments
        ],
    }
    return json.dumps(header)


def _probe_line(probe: ProbeRecord) -> str:
    return json.dumps(
        {
            "slot": probe.slot,
            "t": probe.send_time,
            "n": probe.n_packets,
            "owds": list(probe.owds),
            "obl": probe.owd_before_loss,
        }
    )


class TraceWriter:
    """Incremental trace writer for long-running (live) measurements.

    The batch :func:`save_measurement` needs the whole probe list up
    front; a live session instead knows its *schedule* at start and grows
    its probe log over minutes or hours. The writer puts the header on
    disk immediately and flushes each probe line as it is appended, so a
    crash (or Ctrl-C) mid-session leaves a trace that is valid up to the
    last completed line — and :func:`load_measurement` with
    ``recover=True`` shrugs off the torn final line a hard kill can leave.

    Usable as a context manager; ``close()`` is idempotent.
    """

    def __init__(
        self,
        path: PathLike,
        slot_width: float,
        n_slots: int,
        p: float,
        experiments: List[Experiment],
        metadata: Optional[Dict[str, Any]] = None,
    ):
        from repro.obs.artifacts import ensure_parent_dir

        ensure_parent_dir(path, "trace", exc_type=TraceFormatError)
        try:
            self._handle = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise TraceFormatError(f"cannot write trace {path}: {exc}") from exc
        self.path = path
        self.probes_written = 0
        self._handle.write(
            _header_line(slot_width, n_slots, p, experiments, dict(metadata or {}))
            + "\n"
        )
        self._handle.flush()

    def write_probe(self, probe: ProbeRecord) -> None:
        if self._handle is None:
            raise TraceFormatError(f"trace writer for {self.path} is closed")
        prof = _profiling.ACTIVE
        if prof is None:
            self._handle.write(_probe_line(probe) + "\n")
            self._handle.flush()
        else:
            started = perf_counter()
            self._handle.write(_probe_line(probe) + "\n")
            self._handle.flush()
            prof.record("trace.io", perf_counter() - started)
        self.probes_written += 1

    def write_probes(self, probes: List[ProbeRecord]) -> None:
        """Append a batch of probes with one write + one flush.

        The per-probe :meth:`write_probe` flushes after every line (the
        crash-safety contract for live sessions); batch writers — sweep
        archival, trace re-export — pay that syscall tax per *batch*
        instead. Line format and resulting file bytes are identical to
        repeated single writes.
        """
        if self._handle is None:
            raise TraceFormatError(f"trace writer for {self.path} is closed")
        if not probes:
            return
        payload = "".join(_probe_line(probe) + "\n" for probe in probes)
        prof = _profiling.ACTIVE
        if prof is None:
            self._handle.write(payload)
            self._handle.flush()
        else:
            started = perf_counter()
            self._handle.write(payload)
            self._handle.flush()
            prof.record("trace.io", perf_counter() - started)
        self.probes_written += len(probes)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def save_measurement(
    path: PathLike,
    measurement: Union[Measurement, BadabingTool],
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a measurement trace. Accepts a Measurement or a live tool."""
    # The tool runs on the simulator, which offline use never loads.
    from repro.core.badabing import BadabingTool

    if isinstance(measurement, BadabingTool):
        measurement = measurement_from_tool(measurement, metadata)
    elif metadata:
        measurement.metadata.update(metadata)
    with _profiling.profile_stage("trace.io"):
        with TraceWriter(
            path,
            measurement.slot_width,
            measurement.n_slots,
            measurement.p,
            measurement.experiments,
            measurement.metadata,
        ) as writer:
            writer.write_probes(measurement.probes)


#: The documented decoder entry under ``json.loads``. Called directly on a
#: stripped line it skips two Python frames and two whitespace matches per
#: probe, about a fifth of the decoding time of a long trace.
_decode_json = json.JSONDecoder().raw_decode


#: The JSON booleans. An OWD hashes and compares equal to one only when it
#: is 0.0 or 1.0, so a set test rules booleans out of most lines, and the
#: type test of each OWD runs on the rest alone. With it and the array test
#: below, perfbench ``offline_remark`` ``cost_ms_p50`` read about 4% above
#: the loader without either; with a type test of every value instead,
#: about 6% (five alternating pairs each on a 2-vCPU VM).
_BOOLEANS = frozenset((False, True))


def _parse_probe_line(line: str) -> ProbeRecord:
    """Decode one stripped probe line; raises ValueError/KeyError/TypeError
    (OverflowError for an integer too large for a float) on rot.

    The batch stages read ``slot`` and ``n`` into int64 columns and sort
    checks compare send times, so a fractional or non-finite number would
    be truncated, crash the cast, or slip past a comparison; such a line
    is corrupt. So is a boolean where a number belongs, or ``owds`` that
    is not an array.
    """
    record, end = _decode_json(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    slot = record["slot"]
    send_time = record["t"]
    n_packets = record["n"]
    owds = record["owds"]
    owd_before_loss = record["obl"]
    # type() is exact: JSON true/false decode to bool, an int subclass, which
    # isfinite takes.
    if type(slot) is not int or type(n_packets) is not int:
        raise ValueError(f"slot and n must be integers, got {slot!r}, {n_packets!r}")
    if type(owds) is not list:
        raise ValueError(f"owds must be an array, got {owds!r}")
    owds = tuple(owds)
    if not (
        isfinite(send_time)
        and all(map(isfinite, owds))
        and (owd_before_loss is None or isfinite(owd_before_loss))
    ):
        raise ValueError("t, owds and obl must be finite numbers")
    if (
        send_time is True
        or send_time is False
        or owd_before_loss is True
        or owd_before_loss is False
        or not _BOOLEANS.isdisjoint(owds)
        and bool in map(type, owds)
    ):
        raise ValueError("t, owds and obl must be numbers, not booleans")
    return ProbeRecord(slot, send_time, n_packets, owds, owd_before_loss)


def _header_experiment(start: Any, length: Any) -> Experiment:
    """One ``[start, length]`` pair of a trace header.

    The batch stages read experiments into int64 columns, so a fractional
    start would be truncated; type() is exact, because JSON true/false
    decode to bool, an int subclass.
    """
    if type(start) is not int or type(length) is not int:
        raise ValueError(
            f"experiment start and length must be integers, got {start!r}, {length!r}"
        )
    return Experiment(start, length)


def _check_header(header: Dict[str, Any]) -> None:
    """Refuse the header values the configuration classes would refuse.

    The same bounds as :class:`~repro.config.ProbeConfig` and
    :class:`~repro.config.BadabingConfig`: ``slot_width`` finite and
    positive, ``n_slots`` an integer of at least 2, ``p`` in (0, 1], and a
    ``metadata.probe_size``, when present, a positive integer. Otherwise a
    trace re-estimates to a negative or nan duration, a negative probe
    load, or a raw ``TypeError``. Raises KeyError for a missing field and
    ValueError for a bad value; both loaders call it.
    """
    slot_width = header["slot_width"]
    n_slots = header["n_slots"]
    p = header["p"]
    metadata = header.get("metadata", {})
    # type() is exact: JSON true/false decode to bool, an int subclass.
    if type(slot_width) not in (int, float) or not (
        isfinite(slot_width) and slot_width > 0
    ):
        raise ValueError(f"slot_width must be finite and > 0, got {slot_width!r}")
    if type(n_slots) is not int or n_slots < 2:
        raise ValueError(f"n_slots must be an integer >= 2, got {n_slots!r}")
    if type(p) not in (int, float) or not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p!r}")
    if not isinstance(metadata, dict):
        raise ValueError(f"metadata must be a JSON object, got {metadata!r}")
    if "probe_size" in metadata:
        probe_size = metadata["probe_size"]
        if type(probe_size) is not int or probe_size <= 0:
            raise ValueError(
                f"metadata probe_size must be a positive integer, got {probe_size!r}"
            )


def load_measurement(path: PathLike, recover: bool = False) -> Measurement:
    """Read a measurement trace written by :func:`save_measurement`.

    Parameters
    ----------
    path:
        The JSONL trace file.
    recover:
        When False (default), the first corrupt probe line aborts the load
        with a :class:`~repro.errors.TraceFormatError` naming the line.
        When True, corrupt probe lines are *skipped* and recorded as
        :class:`TraceDiagnostic` entries on the returned measurement — a
        partially damaged trace still yields every intact record. The
        header (line 1) is required in either mode: without it there is
        no schedule to recover against.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from exc
    with _profiling.profile_stage("trace.io"), handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise TraceFormatError(f"{path}: empty trace file", line_number=1)
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{path}: header is not valid JSON: {exc}", line_number=1
            ) from exc
        if not isinstance(header, dict) or header.get("type") != FORMAT_NAME:
            kind = header.get("type") if isinstance(header, dict) else header
            raise TraceFormatError(
                f"{path}: not a {FORMAT_NAME} file (type={kind!r})", line_number=1
            )
        if header.get("version") != FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: unsupported trace version {header.get('version')!r}",
                line_number=1,
            )
        try:
            _check_header(header)
            measurement = Measurement(
                slot_width=header["slot_width"],
                n_slots=header["n_slots"],
                p=header["p"],
                experiments=[
                    _header_experiment(start, length)
                    for start, length in header["experiments"]
                ],
                probes=[],
                metadata=header.get("metadata", {}),
            )
        except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
            raise TraceFormatError(
                f"{path}: malformed header: {exc!r}", line_number=1
            ) from exc
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                measurement.probes.append(_parse_probe_line(line))
            except (
                json.JSONDecodeError,
                KeyError,
                OverflowError,
                TypeError,
                ValueError,
                ConfigurationError,
            ) as exc:
                reason = (
                    f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
                )
                if not recover:
                    raise TraceFormatError(
                        f"{path}: corrupt probe record on line {line_number}: "
                        f"{reason}",
                        line_number=line_number,
                    ) from exc
                snippet = line if len(line) <= 80 else line[:77] + "..."
                measurement.diagnostics.append(
                    TraceDiagnostic(line_number, reason, snippet)
                )
    return measurement


#: Binary (structure-of-arrays) trace format marker, stored in the archive.
BINARY_FORMAT_NAME = "badabing-trace-npz"
BINARY_FORMAT_VERSION = 1


def save_measurement_binary(
    path: PathLike,
    measurement: Union[Measurement, BadabingTool],
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a measurement as a packed structure-of-arrays ``.npz`` archive.

    The columnar twin of :func:`save_measurement`: the schedule and every
    probe field become contiguous arrays (variable-length per-probe OWD
    lists are flattened with an offsets array; absent ``owd_before_loss``
    is nan-coded), written in one shot. Requires numpy; float values
    round-trip bit-exactly, so a re-estimate over a reloaded binary trace
    matches the JSONL one digest-for-digest.
    """
    import numpy as np

    from repro.core.badabing import BadabingTool
    from repro.obs.artifacts import ensure_parent_dir

    if isinstance(measurement, BadabingTool):
        measurement = measurement_from_tool(measurement, metadata)
    elif metadata:
        measurement.metadata.update(metadata)
    probes = measurement.probes
    n = len(probes)
    owds_offsets = np.zeros(n + 1, dtype=np.int64)
    for index, probe in enumerate(probes):
        owds_offsets[index + 1] = owds_offsets[index] + len(probe.owds)
    owds_flat = np.fromiter(
        (owd for probe in probes for owd in probe.owds),
        dtype=np.float64,
        count=int(owds_offsets[-1]),
    )
    header = {
        "type": BINARY_FORMAT_NAME,
        "version": BINARY_FORMAT_VERSION,
        "slot_width": measurement.slot_width,
        "n_slots": measurement.n_slots,
        "p": measurement.p,
        "metadata": measurement.metadata,
    }
    ensure_parent_dir(path, "trace", exc_type=TraceFormatError)
    with _profiling.profile_stage("trace.io"):
        try:
            with open(path, "wb") as handle:
                np.savez_compressed(
                    handle,
                    header=np.frombuffer(
                        json.dumps(header).encode("utf-8"), dtype=np.uint8
                    ),
                    exp_start=np.array(
                        [e.start_slot for e in measurement.experiments], dtype=np.int64
                    ),
                    exp_length=np.array(
                        [e.length for e in measurement.experiments], dtype=np.int64
                    ),
                    slot=np.array([p.slot for p in probes], dtype=np.int64),
                    send_time=np.array([p.send_time for p in probes], dtype=np.float64),
                    n_packets=np.array([p.n_packets for p in probes], dtype=np.int64),
                    owds_flat=owds_flat,
                    owds_offsets=owds_offsets,
                    owd_before_loss=np.array(
                        [
                            float("nan") if p.owd_before_loss is None else p.owd_before_loss
                            for p in probes
                        ],
                        dtype=np.float64,
                    ),
                )
        except OSError as exc:
            raise TraceFormatError(f"cannot write trace {path}: {exc}") from exc


def load_measurement_binary(path: PathLike) -> Measurement:
    """Read a measurement written by :func:`save_measurement_binary`."""
    import math

    import numpy as np

    with _profiling.profile_stage("trace.io"):
        try:
            with np.load(path) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise TraceFormatError(f"cannot read trace {path}: {exc}") from exc
    try:
        header = json.loads(bytes(arrays["header"]).decode("utf-8"))
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(f"{path}: malformed binary trace header") from exc
    if not isinstance(header, dict) or header.get("type") != BINARY_FORMAT_NAME:
        kind = header.get("type") if isinstance(header, dict) else header
        raise TraceFormatError(
            f"{path}: not a {BINARY_FORMAT_NAME} archive (type={kind!r})"
        )
    if header.get("version") != BINARY_FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: unsupported binary trace version {header.get('version')!r}"
        )
    try:
        _check_header(header)
    except (KeyError, ValueError) as exc:
        raise TraceFormatError(
            f"{path}: malformed binary trace header: {exc!r}"
        ) from exc
    try:
        # The checks the JSONL loader makes per probe line, per column: slots
        # and counts are integers, times finite. NaN in owd_before_loss
        # encodes None.
        if any(
            arrays[name].dtype.kind not in "iu"
            for name in ("exp_start", "exp_length", "slot", "n_packets")
        ):
            raise ValueError("experiment, slot and count columns must be integers")
        if not (
            np.isfinite(arrays["send_time"]).all()
            and np.isfinite(arrays["owds_flat"]).all()
            and not np.isinf(arrays["owd_before_loss"]).any()
        ):
            raise ValueError("send_time, owds_flat and owd_before_loss must be finite")
        experiments = [
            Experiment(start, length)
            for start, length in zip(
                arrays["exp_start"].tolist(), arrays["exp_length"].tolist()
            )
        ]
        offsets = arrays["owds_offsets"].tolist()
        owds_flat = arrays["owds_flat"].tolist()
        obl = arrays["owd_before_loss"].tolist()
        probes = [
            ProbeRecord(
                slot=slot,
                send_time=send_time,
                n_packets=n_packets,
                owds=tuple(owds_flat[offsets[index] : offsets[index + 1]]),
                owd_before_loss=None if math.isnan(obl[index]) else obl[index],
            )
            for index, (slot, send_time, n_packets) in enumerate(
                zip(
                    arrays["slot"].tolist(),
                    arrays["send_time"].tolist(),
                    arrays["n_packets"].tolist(),
                )
            )
        ]
    except (KeyError, IndexError, TypeError, ValueError, ConfigurationError) as exc:
        raise TraceFormatError(f"{path}: malformed binary trace body: {exc!r}") from exc
    return Measurement(
        slot_width=header["slot_width"],
        n_slots=header["n_slots"],
        p=header["p"],
        experiments=experiments,
        probes=probes,
        metadata=header.get("metadata", {}),
    )


def reestimate(
    measurement: Measurement,
    marking: Optional[MarkingConfig] = None,
    improved: Optional[bool] = None,
) -> BadabingResult:
    """Offline §6.1 marking + §5 estimation over a loaded trace.

    Runs the array-batched slot pipeline
    (:func:`repro.core.batch.run_slot_pipeline`), because re-marking a long
    trace — over a whole (α, τ) grid for Fig. 9 — is the offline hot path.
    The probe columns, experiment arrays and per-record summaries it needs
    depend on the probes and experiments alone, so they are kept on the
    measurement and reused by the next call for as long as both lists
    compare equal; each call still checks the slot reach against
    ``n_slots`` and the send-time order. The result is bit-identical to
    the scalar stages (:meth:`CongestionMarker.mark
    <repro.core.marking.CongestionMarker.mark>` → :meth:`Measurement.outcomes`
    → :func:`~repro.core.schedule.coverage_report` →
    :func:`~repro.core.estimators.estimate_from_outcomes` /
    :func:`~repro.core.validation.validate_outcomes`). Its ``outcomes`` and
    ``marking.slot_states`` are read-only views
    (:class:`~repro.core.batch.OutcomesView`,
    :class:`~repro.core.batch.SlotStatesView`) that build the list and the
    dict on first read and compare equal to the scalar chain's, so a
    caller that reads only the estimate, validation and coverage builds
    neither. Probes are taken in file order: a trace whose probes are not
    sorted by send time raises :class:`~repro.errors.ConfigurationError`,
    as the scalar marker does, and so does a trace whose probes or
    experiments reach past its ``n_slots``.

    Degrades like the live tool: partial traces (recovery-mode loads,
    receiver outages) produce an estimate with a sub-unity coverage
    report; a trace with no usable experiments raises
    :class:`~repro.errors.EstimationError` describing the coverage.
    """
    from repro.core import batch

    try:
        columns = measurement._probe_columns()
        reach = columns.reach
    except OverflowError as exc:
        # The int64 columns hold nothing past 2**63 - 1. A slot or an
        # experiment that far out is past any window; otherwise a packet
        # count (or a slot below -2**63) is at fault.
        reach = max(
            [probe.slot + 1 for probe in measurement.probes]
            + [
                experiment.start_slot + experiment.length
                for experiment in measurement.experiments
            ]
        )
        if reach <= measurement.n_slots:
            raise ConfigurationError(
                f"a probe's slot or packet count does not fit an int64: {exc}"
            ) from exc
    if reach > measurement.n_slots:
        raise ConfigurationError(
            f"trace slots reach slot {reach - 1}, past its "
            f"n_slots={measurement.n_slots}"
        )
    pipeline = batch.run_slot_pipeline(
        columns.starts, columns.lengths, columns.arrays, marking
    )
    marked = pipeline.marking
    coverage = pipeline.coverage
    return BadabingResult(
        estimate=estimate_from_counter(
            pipeline.counter, improved=improved, coverage=coverage
        ),
        validation=report_from_counter(pipeline.counter, coverage=coverage),
        marking=MarkingResult(
            # Keyed by the records' own slot ints: ints minted from the
            # slot array would cost memory for as long as the result lives.
            slot_states=batch.SlotStatesView(columns.slots, marked.states),
            marked_by_loss=marked.marked_by_loss,
            marked_by_delay=marked.marked_by_delay,
            noise_losses=marked.noise_losses,
            owd_max_estimates=marked.owd_max_estimates,
        ),
        probes=measurement.probes,
        outcomes=batch.OutcomesView(pipeline.starts, pipeline.keys, pipeline.valid),
        n_probes_sent=columns.n_probes_sent,
        probe_load_bps=_probe_load_bps(measurement, columns.n_packets),
        slot_width=measurement.slot_width,
        coverage=coverage,
    )


def _probe_load_bps(measurement: Measurement, n_packets: int) -> float:
    """Probe load from the records' packet count (sizes are not persisted,
    so report packets/second x nominal 600 B unless metadata overrides)."""
    probe_size = int(measurement.metadata.get("probe_size", 600))
    duration = measurement.n_slots * measurement.slot_width
    if duration <= 0:
        return 0.0
    return n_packets * probe_size * 8 / duration
