"""Trace and event file serialization: one CSV row per control tick plus a sidecar."""

from __future__ import annotations

import itertools
import math
import operator
from pathlib import Path

import numpy as np

from .engine import Event, EventKind
from .trace import N_CODES, N_FLOATS, SCHEMA, SLOTS, ZONES, Trace

TRACE_COLUMNS = tuple(column for f in SCHEMA for column in f.columns)
CHUNK_ROWS = 4096  # rows formatted or parsed at a time; bounds memory on long traces


class TraceFileError(ValueError):
    pass


def _f(x: float) -> str:
    # repr round-trips doubles exactly and deterministically
    return repr(float(x))


def _csv_columns():
    """(header, field, float block column or None, code column or None) per CSV column."""
    out = []
    for f in SCHEMA:
        index = SLOTS[f.name].index
        if f.codes is not None:
            out.append((f.name, f, None, index))
        elif f.headers:
            out.extend((h, f, index.start + k, None) for k, h in enumerate(f.headers))
        else:
            out.append((f.name, f, index, None))
    return tuple(out)


_CSV = _csv_columns()
_TEXTS = {f.name: np.array(f.codes.texts, dtype=object) for f in SCHEMA if f.codes is not None}
_LOOKUP = {name: {text: code for code, text in enumerate(texts)} for name, texts in _TEXTS.items()}
_T = SLOTS["t"].index


def _float_texts(column: np.ndarray) -> list[str]:
    """repr of every value, computed once per run of bit-identical values.

    Runs are found on the int64 view, so -0.0 and 0.0 (and NaN payloads)
    stay distinct, as one repr per value would keep them.
    """
    bits = column.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    texts = np.array(list(map(repr, column[starts].tolist())), dtype=object)
    return texts.repeat(np.diff(starts, append=len(column))).tolist()


def _run_starts(items) -> list[int]:
    """Index of the first item of each run of equal items."""
    changed = np.fromiter(map(operator.ne, items[1:], items[:-1]), dtype=bool, count=len(items) - 1)
    return [0, *(np.flatnonzero(changed) + 1).tolist()]


def _parse_floats(texts) -> np.ndarray:
    """float() of every text, called once per run of equal texts.

    Raises ValueError for a text the writer would not write, that is one that
    is not repr() of its value: float() also takes "1_0", " 1", "+1" or "NaN".
    """
    starts = _run_starts(texts)
    firsts = list(map(texts.__getitem__, starts))
    values = list(map(float, firsts))
    if list(map(repr, values)) != firsts:
        raise ValueError("a number is not written as repr() of its value")
    return np.repeat(values, np.diff(starts, append=len(texts)))


def _row_lines(trace: Trace):
    """The CSV lines of a trace's rows, formatted column by column in chunks."""
    for a in range(0, len(trace), CHUNK_ROWS):
        floats = trace.floats[a : a + CHUNK_ROWS]
        codes = trace.codes[a : a + CHUNK_ROWS]
        columns = [
            _float_texts(floats[:, j]) if k is None else _TEXTS[f.name][codes[:, k]].tolist()
            for _, f, j, k in _CSV
        ]
        yield list(map(",".join, zip(*columns)))


def _line_blocks(trace: Trace, metadata: dict | None):
    """Every line of a trace file, in lists: metadata and header, then row chunks."""
    yield [f"# {k}={v}" for k, v in (metadata or {}).items()] + [",".join(TRACE_COLUMNS)]
    yield from _row_lines(trace)


def trace_lines(trace: Trace, metadata: dict | None = None):
    for lines in _line_blocks(trace, metadata):
        yield from lines


def write_trace(trace: Trace, path, metadata: dict | None = None):
    with open(path, "w", encoding="utf-8") as f:
        for lines in _line_blocks(trace, metadata):
            f.write("\n".join(lines) + "\n")


def _check_number(cell: str, header: str, path, lineno: int, time: bool) -> float:
    """The value of a number field; TraceFileError unless it is written as the writer would."""
    try:
        value = float(cell)
    except ValueError as exc:
        raise TraceFileError(f"{path}:{lineno}: {header}: {exc}") from exc
    if repr(value) != cell:
        raise TraceFileError(f"{path}:{lineno}: {header}: {cell!r} is not written as {value!r}")
    if time and not math.isfinite(value):
        raise TraceFileError(f"{path}:{lineno}: {header}: time must be finite, got {cell}")
    return value


def _check_line(line: str, path, lineno: int):
    """Raise TraceFileError for the first field of one line the writer would not write."""
    for cell, (header, f, j, k) in zip(line.rstrip("\n").split(","), _CSV):
        if k is None:
            _check_number(cell, header, path, lineno, time=j == _T)
        elif cell not in _LOOKUP[f.name]:
            raise TraceFileError(f"{path}:{lineno}: {header}: unknown value {cell!r}")


def _parse_chunk(lines: list[str], path, first_lineno: int) -> tuple[np.ndarray, np.ndarray]:
    """Float and code blocks of a chunk of data lines; fails on the first bad line."""
    n, width = len(lines), len(TRACE_COLUMNS)
    commas = list(map(str.count, lines, itertools.repeat(",")))
    if commas.count(width - 1) != n:
        k = next(k for k, c in enumerate(commas) if c != width - 1)
        raise TraceFileError(f"{path}:{first_lineno + k}: wrong field count")
    # The first column, t (SCHEMA starts with it), changes every tick; the rest
    # of a line mostly repeats the line before, so it is parsed once per run.
    times, rests = zip(*(line.split(",", 1) for line in lines))
    starts = _run_starts(rests)
    cells = ",".join(map(rests.__getitem__, starts)).replace("\n", "").split(",")
    floats = np.empty((len(starts), N_FLOATS))
    codes = np.empty((len(starts), N_CODES), dtype=np.int8)
    try:
        for c, (_, f, j, k) in enumerate(_CSV[1:]):
            column = cells[c :: width - 1]
            if k is None:
                floats[:, j] = _parse_floats(column)
            else:
                codes[:, k] = list(map(_LOOKUP[f.name].__getitem__, column))
        repeats = np.diff(starts, append=n)
        floats, codes = floats.repeat(repeats, axis=0), codes.repeat(repeats, axis=0)
        floats[:, _T] = _parse_floats(times)
        if np.isfinite(floats[:, _T]).all():
            return floats, codes
    except (ValueError, KeyError):
        pass
    for k, line in enumerate(lines):
        _check_line(line, path, first_lineno + k)
    last = first_lineno + n - 1
    raise TraceFileError(f"{path}:{first_lineno}-{last}: rows could not be parsed")


def read_trace(path) -> Trace:
    """Read a trace file; anything the writer would not write raises TraceFileError.

    The file is parsed CHUNK_ROWS lines at a time, each column with float(), so
    every value is read back exactly.
    """
    float_blocks, code_blocks = [], []
    with open(path, encoding="utf-8") as f:
        lineno = 0
        for line in f:
            lineno += 1
            if not line.startswith("#"):
                break
        else:
            raise TraceFileError(f"{path}: no header row")
        if tuple(line.rstrip("\n").split(",")) != TRACE_COLUMNS:
            raise TraceFileError(f"{path}: unexpected trace columns")
        while lines := list(itertools.islice(f, CHUNK_ROWS)):
            floats, codes = _parse_chunk(lines, path, lineno + 1)
            float_blocks.append(floats)
            code_blocks.append(codes)
            lineno += len(lines)
    if not float_blocks:
        return Trace.empty(0)
    return Trace(np.concatenate(float_blocks), np.concatenate(code_blocks))


def write_events(events: list[Event], path):
    lines = ["t,kind,payload"]
    lines.extend(f"{_f(e.t)},{e.kind.value},{e.payload}" for e in events)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_events(path) -> list[Event]:
    """Read an events file; anything write_events would not write raises TraceFileError."""
    events = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "t,kind,payload":
        raise TraceFileError(f"{path}: missing events header")
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            raise TraceFileError(f"{path}:{lineno}: blank line")
        parts = line.split(",", 2)
        if len(parts) != 3:
            raise TraceFileError(f"{path}:{lineno}: wrong field count")
        t = _check_number(parts[0], "t", path, lineno, time=True)
        try:
            events.append(Event(t=t, kind=EventKind(parts[1]), payload=parts[2]))
        except ValueError as exc:
            raise TraceFileError(f"{path}:{lineno}: {exc}") from exc
    return events


def emit_profile_data(trace: Trace, path):
    """Two-column commanded-speed series plus zone-interval annotations for plotting."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("t_s,commanded_speed_m_s\n")
        for a in range(0, len(trace), CHUNK_ROWS):
            part = trace[a : a + CHUNK_ROWS]
            times, speeds = _float_texts(part.column("t")), _float_texts(part.column("v_cap"))
            f.write("\n".join(map(",".join, zip(times, speeds))) + "\n")
        if not len(trace):
            return
        times = trace.values("t")
        dt = times[1] - times[0] if len(times) > 1 else 0.0
        # zone codes follow the Zone order, so the larger code is the worse zone
        zone = np.maximum(trace.column("occ_left"), trace.column("occ_right"))
        changes = (np.flatnonzero(zone[1:] != zone[:-1]) + 1).tolist()
        starts = [0] + changes
        ends = [times[i] for i in changes] + [times[-1] + dt]
        for first, end in zip(starts, ends):
            text = ZONES.texts[zone[first]]
            f.write(f"# interval,{text},{_f(times[first])},{_f(end)}\n")
