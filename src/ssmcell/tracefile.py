"""Trace and event file serialization: one CSV row per control tick plus a sidecar."""

from __future__ import annotations

import itertools
import math
import operator
from pathlib import Path

import numpy as np

from .control import CONTROL_PERIOD
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
_TAIL = _CSV[1:]  # the CSV columns after t; SCHEMA starts with it
_TAIL_FLOATS = np.array([j for _, _, j, k in _TAIL if k is None])  # float block columns
_TAIL_FLOATS_AT = np.array([c for c, (_, _, _, k) in enumerate(_TAIL) if k is None])
_TAIL_CODES = tuple(
    (c, k, _TEXTS[f.name], _LOOKUP[f.name]) for c, (_, f, _, k) in enumerate(_TAIL) if k is not None
)
GRID_ROWS = 1 << 17  # tick-grid rows whose t texts are kept: 262 s at the 2 ms period


class _TickTexts:
    """repr(k * CONTROL_PERIOD), the t text of row k of a trace on the engine's grid.

    The engine writes t = k * CONTROL_PERIOD, so these texts depend only on k:
    they are formatted once per process, for the rows asked for so far, and
    shared by the reader, the writer and the profile.  At most ``limit`` rows
    are kept, as one string with each text followed by a line feed and the
    int32 offset of each row, about 13 B a row: 1.6 MB at GRID_ROWS.  A column
    that is not on the grid, or rows past the limit, fall back to one repr per
    value.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self._kept = ("", np.zeros(1, dtype=np.int32))  # replaced whole, never mutated

    def __len__(self) -> int:
        return len(self._kept[1]) - 1

    def _joined(self, start: int, stop: int) -> str:
        """The texts of rows start to stop - 1, joined by line feeds; stop <= limit."""
        text, offsets = self._kept
        if stop >= len(offsets):
            new = list(map(repr, _grid(len(offsets) - 1, stop).tolist()))
            lengths = np.fromiter(map(len, new), dtype=np.int32, count=len(new)) + 1
            ends = offsets[-1] + np.cumsum(lengths, dtype=np.int32)
            text += "\n".join(new) + "\n"
            offsets = np.concatenate((offsets, ends))
            self._kept = text, offsets
        return text[offsets[start] : offsets[stop] - 1]

    def texts(self, times: np.ndarray, start: int) -> list[str]:
        """repr of each value of a t column that belongs to rows start, start + 1, ..."""
        stop = start + len(times)
        on_grid = np.array_equal(times.view(np.int64), _grid(start, stop).view(np.int64))
        if on_grid and stop <= self.limit:
            return self._joined(start, stop).split("\n")
        return list(map(repr, times.tolist()))

    def match(self, texts, start: int) -> bool:
        """Whether texts are those of rows start, start + 1, ... on the grid.

        A text with a line feed in it makes the joined texts longer than the
        kept ones, so equal joins mean equal texts.
        """
        stop = start + len(texts)
        return stop <= self.limit and "\n".join(texts) == self._joined(start, stop)


def _grid(start: int, stop: int) -> np.ndarray:
    """t of rows start to stop - 1, computed as the engine does: k * CONTROL_PERIOD."""
    return np.arange(start, stop) * CONTROL_PERIOD


_TICKS = _TickTexts(GRID_ROWS)


def _float_texts(column: np.ndarray) -> list[str]:
    """repr of every value, computed once per run of bit-identical values.

    Runs are found on the int64 view, so -0.0 and 0.0 (and NaN payloads)
    stay distinct, as one repr per value would keep them.
    """
    bits = column.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    texts = np.array(list(map(repr, column[starts].tolist())), dtype=object)
    return texts.repeat(np.diff(starts, append=len(column))).tolist()


def _changed(block: np.ndarray) -> np.ndarray:
    """Cells that differ from the cell above them; the first row counts as changed."""
    changed = np.ones(block.shape, dtype=bool)
    changed[1:] = block[1:] != block[:-1]
    return changed


def _carried(changed: np.ndarray):
    """Index of each cell's latest change at or above it, for forward-filling a block."""
    rows = np.where(changed, np.arange(len(changed))[:, None], 0)
    return np.maximum.accumulate(rows, axis=0), np.arange(changed.shape[1])


def _row_tails(floats: np.ndarray, codes: np.ndarray) -> list[str]:
    """The text after t of every row, from its comma to its line feed.

    It is formatted once per run of rows whose other fields are bit-identical,
    and within those run heads, with one repr per cell that differs from the
    head above.

    Runs and changed cells are found on the int64 view, so -0.0 and 0.0 (and
    NaN payloads) stay distinct, as one repr per value would keep them.
    """
    n = len(floats)
    bits = floats[:, _TAIL_FLOATS].view(np.int64)
    new = np.ones(n, dtype=bool)
    new[1:] = (bits[1:] != bits[:-1]).any(axis=1) | (codes[1:] != codes[:-1]).any(axis=1)
    heads = np.flatnonzero(new)
    bits = bits[heads]
    changed = _changed(bits)
    texts = np.empty(bits.shape, dtype=object)
    texts[changed] = list(map(repr, bits.view(np.float64)[changed].tolist()))
    cells = np.empty((len(heads), len(_TAIL) + 1), dtype=object)
    cells[:, 0] = ""  # joins to the comma after t
    cells[:, _TAIL_FLOATS_AT + 1] = texts[_carried(changed)]
    for c, k, names, _ in _TAIL_CODES:
        cells[:, c + 1] = names[codes[heads, k]]
    tails = [",".join(row) + "\n" for row in cells.tolist()]
    runs = map(itertools.repeat, tails, np.diff(heads, append=n).tolist())
    return list(itertools.chain.from_iterable(runs))


def _row_texts(trace: Trace):
    """The CSV text of a trace's rows in chunks, each line ending in a line feed."""
    for a in range(0, len(trace), CHUNK_ROWS):
        floats = trace.floats[a : a + CHUNK_ROWS]
        times = _TICKS.texts(floats[:, _T], a)
        cells = [None] * (2 * len(times))
        cells[::2] = times
        cells[1::2] = _row_tails(floats, trace.codes[a : a + CHUNK_ROWS])
        yield "".join(cells)


def _header_lines(metadata: dict | None) -> list[str]:
    return [f"# {k}={v}" for k, v in (metadata or {}).items()] + [",".join(TRACE_COLUMNS)]


def trace_lines(trace: Trace, metadata: dict | None = None):
    yield from _header_lines(metadata)
    for text in _row_texts(trace):
        yield from text.splitlines()


def write_trace(trace: Trace, path, metadata: dict | None = None):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(_header_lines(metadata)) + "\n")
        f.writelines(_row_texts(trace))


def _not_utf8(path) -> TraceFileError:
    """The error for a file that is not UTF-8: the line and value of its first
    byte that does not decode."""
    try:
        Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # exc.object holds the whole file
        line, byte = exc.object.count(b"\n", 0, exc.start) + 1, exc.object[exc.start]
        return TraceFileError(f"{path}:{line}: not UTF-8 text: byte 0x{byte:02x}")


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
    if line.count(",") != len(_CSV) - 1:
        raise TraceFileError(f"{path}:{lineno}: wrong field count")
    for cell, (header, f, j, k) in zip(line.rstrip("\n").split(","), _CSV):
        if k is None:
            _check_number(cell, header, path, lineno, time=j == _T)
        elif cell not in _LOOKUP[f.name]:
            raise TraceFileError(f"{path}:{lineno}: {header}: unknown value {cell!r}")


def _parse_tails(tails: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Float and code blocks of distinct line tails, t left unset.

    Each float cell that differs from the one above it is parsed, and checked
    to be repr() of its value, once; the others repeat the cell above.
    Raises ValueError or KeyError for anything the writer would not write.
    """
    width = len(_TAIL)
    if list(map(str.count, tails, itertools.repeat(","))).count(width - 1) != len(tails):
        raise ValueError("wrong field count")
    cells = np.array(",".join(tails).replace("\n", "").split(","), dtype=object)
    cells = cells.reshape(len(tails), width)
    numbers = cells[:, _TAIL_FLOATS_AT]
    changed = _changed(numbers)
    texts = numbers[changed].tolist()
    values = list(map(float, texts))
    # float() also takes "1_0", " 1", "+1" or "NaN"; repr() gives back only what the writer writes
    if list(map(repr, values)) != texts:
        raise ValueError("a number is not written as repr() of its value")
    parsed = np.empty(numbers.shape)
    parsed[changed] = values
    floats = np.empty((len(tails), N_FLOATS))
    floats[:, _TAIL_FLOATS] = parsed[_carried(changed)]
    codes = np.empty((len(tails), N_CODES), dtype=np.int8)
    for c, k, _, lookup in _TAIL_CODES:
        codes[:, k] = list(map(lookup.__getitem__, cells[:, c].tolist()))
    return floats, codes


def _parse_times(times: list[str]) -> np.ndarray:
    """The t column of a chunk; ValueError for a text that is not repr() of a finite value."""
    values = list(map(float, times))
    if list(map(repr, values)) != times or not all(map(math.isfinite, values)):
        raise ValueError("a time is not written as repr() of a finite value")
    return np.array(values)


def _parse_chunk(lines: list[str], path, first_lineno: int, first_row: int):
    """Float and code blocks of a chunk of data lines; fails on the first bad line."""
    n = len(lines)
    # The first column, t, changes every tick; the tail of a line mostly
    # repeats the line before, so it is parsed once per run of equal tails.
    parts = list(map(str.partition, lines, itertools.repeat(",")))
    times = list(map(operator.itemgetter(0), parts))
    tails = list(map(operator.itemgetter(2), parts))
    new = np.ones(n, dtype=bool)
    new[1:] = np.fromiter(map(operator.ne, tails[1:], tails[:-1]), dtype=bool, count=n - 1)
    heads = np.flatnonzero(new)
    try:
        floats, codes = _parse_tails(list(map(tails.__getitem__, heads.tolist())))
        repeats = np.diff(heads, append=n)
        floats, codes = floats.repeat(repeats, axis=0), codes.repeat(repeats, axis=0)
        # Equal texts are equal values, and grid times are finite.
        if _TICKS.match(times, first_row):
            floats[:, _T] = _grid(first_row, first_row + n)
        else:
            floats[:, _T] = _parse_times(times)
        return floats, codes
    except (ValueError, KeyError):
        pass
    for k, line in enumerate(lines):
        _check_line(line, path, first_lineno + k)
    last = first_lineno + n - 1
    raise TraceFileError(f"{path}:{first_lineno}-{last}: rows could not be parsed")


def read_trace(path) -> Trace:
    """Read a trace file; anything the writer would not write raises TraceFileError.

    The file is parsed CHUNK_ROWS lines at a time, every number with float()
    (or, for a t column on the tick grid, by its text), so every value is read
    back exactly.
    """
    float_blocks, code_blocks = [], []
    try:
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
            rows = 0
            while lines := list(itertools.islice(f, CHUNK_ROWS)):
                floats, codes = _parse_chunk(lines, path, lineno + 1 + rows, rows)
                float_blocks.append(floats)
                code_blocks.append(codes)
                rows += len(lines)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
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
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
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
            times, speeds = _TICKS.texts(part.column("t"), a), _float_texts(part.column("v_cap"))
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
