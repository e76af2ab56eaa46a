"""The per-tick trace: one schema table, a row type made from it, and columnar storage.

``SCHEMA`` is the only description of the trace.  ``TraceRow`` is built from
it, ``Trace`` stores its float fields in one 2-D block and its enum and flag
fields as small integer codes, and ``tracefile`` reads and writes the CSV
columns it names.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .control import CommandSource, ModeKind
from .zones import Zone


class Codes(NamedTuple):
    """The values a coded field can hold, in code order, and the CSV text of each."""

    values: tuple
    texts: tuple[str, ...]


class Field(NamedTuple):
    """One TraceRow field and the CSV columns it occupies."""

    name: str
    default: object = dataclasses.MISSING  # MISSING: the field is required
    headers: tuple[str, ...] = ()  # CSV headers of a vector field; () for a scalar
    codes: Codes | None = None  # enum and flag fields; None for a float field

    @property
    def columns(self) -> tuple[str, ...]:
        return self.headers or (self.name,)


ZONES = Codes(tuple(Zone), tuple(z.name.lower() for z in Zone))
MODES = Codes(tuple(ModeKind), tuple(m.value for m in ModeKind))
SOURCES = Codes(tuple(CommandSource), tuple(s.value for s in CommandSource))
FLAGS = Codes((False, True), ("0", "1"))

# Fields in CSV column order.
SCHEMA = (
    Field("t"),
    Field("q", headers=tuple(f"q{i + 1}" for i in range(6))),
    Field("qdot", headers=tuple(f"qd{i + 1}" for i in range(6))),
    Field("tcp", headers=("tcp_x", "tcp_y", "tcp_z")),
    Field("tcp_speed", 0.0),
    Field("human_x", math.nan),
    Field("human_y", math.nan),
    Field("human_speed", 0.0),
    Field("occ_left", Zone.NORMAL, codes=ZONES),
    Field("occ_right", Zone.NORMAL, codes=ZONES),
    Field("d_i", math.inf),
    Field("dyn_msd", 0.0),
    Field("mode", ModeKind.FULL, codes=MODES),
    Field("fraction", 0.0),
    Field("v_cap", 0.0),
    Field("v_task", 0.0),
    Field("source", CommandSource.PRIMARY_LOOP, codes=SOURCES),
    Field("damped", False, codes=FLAGS),
    Field("pending", True, codes=FLAGS),
    Field("lyap", 0.0),
)


TraceRow = collections.namedtuple(
    "TraceRow",
    [f.name for f in SCHEMA],
    defaults=[f.default for f in SCHEMA if f.default is not dataclasses.MISSING],
    module=__name__,
)
TraceRow.__doc__ = "One control tick; the fields are those of SCHEMA, in its order."


class Slot(NamedTuple):
    """Where a field lives in a Trace: a slice of the float block or one code column."""

    field: Field
    index: int | slice  # float block column(s), or code column
    code_of: dict | None  # value -> code, for coded fields


def _slots() -> dict[str, Slot]:
    slots, n_floats, n_codes = {}, 0, 0
    for f in SCHEMA:
        if f.codes is not None:
            code_of = {value: code for code, value in enumerate(f.codes.values)}
            slots[f.name] = Slot(f, n_codes, code_of)
            n_codes += 1
        elif f.headers:
            slots[f.name] = Slot(f, slice(n_floats, n_floats + len(f.headers)), None)
            n_floats += len(f.headers)
        else:
            slots[f.name] = Slot(f, n_floats, None)
            n_floats += 1
    return slots


SLOTS = _slots()
N_FLOATS = sum(len(f.columns) for f in SCHEMA if f.codes is None)
N_CODES = sum(1 for f in SCHEMA if f.codes is not None)
_T = SLOTS["t"].index
ITER_ROWS = 4096  # rows converted to Python values at a time while iterating

_ZONE_CODE = SLOTS["occ_left"].code_of
_MODE_CODE = SLOTS["mode"].code_of
_SOURCE_CODE = SLOTS["source"].code_of
_FLAG_CODE = SLOTS["damped"].code_of

# Per-field plan for reading a row back, in schema order.
_ROW_PLAN = tuple(
    (SLOTS[f.name].index, bool(f.headers), None if f.codes is None else f.codes.values)
    for f in SCHEMA
)


def _rows(floats: np.ndarray, codes: np.ndarray):
    """TraceRow objects for a block of rows.

    The vector fields are views into one copy of ``floats``, so no row
    aliases the trace it came from.
    """
    block = floats.copy()
    for k, (row, row_codes) in enumerate(zip(block.tolist(), codes.tolist())):
        args = []
        for index, vector, values in _ROW_PLAN:
            if values is not None:
                args.append(values[row_codes[index]])
            else:
                args.append(block[k, index] if vector else row[index])
        yield TraceRow(*args)


class Trace:
    """A run's trace as columns: float fields in one (rows, N_FLOATS) block, the
    enum and flag fields as int8 codes in one (rows, N_CODES) block.

    Indexing with an int gives a TraceRow, slicing gives a Trace of views, and
    iteration yields TraceRow objects.  Consumers read whole columns instead.
    """

    __slots__ = ("floats", "codes")

    def __init__(self, floats: np.ndarray, codes: np.ndarray):
        if floats.shape != (len(floats), N_FLOATS) or codes.shape != (len(floats), N_CODES):
            raise ValueError("trace blocks do not match the schema")
        self.floats = floats
        self.codes = codes

    @classmethod
    def empty(cls, rows: int) -> Trace:
        """Room for ``rows`` ticks, to be filled with ``record``."""
        return cls(np.empty((rows, N_FLOATS)), np.empty((rows, N_CODES), dtype=np.int8))

    def record(
        self,
        i: int,
        t,
        q,
        qdot,
        tcp,
        tcp_speed,
        human_x,
        human_y,
        human_speed,
        occ_left,
        occ_right,
        d_i,
        dyn_msd,
        mode,
        fraction,
        v_cap,
        v_task,
        source,
        damped,
        pending,
        lyap,
    ):
        """Write row i: every field, the vector fields as arrays.  The
        parameters are SCHEMA's fields in its order (a test holds them to it),
        and each block's row is written in one assignment."""
        self.floats[i] = (
            t,
            *q.tolist(),
            *qdot.tolist(),
            *tcp.tolist(),
            tcp_speed,
            human_x,
            human_y,
            human_speed,
            d_i,
            dyn_msd,
            fraction,
            v_cap,
            v_task,
            lyap,
        )
        self.codes[i] = (
            _ZONE_CODE[occ_left],
            _ZONE_CODE[occ_right],
            _MODE_CODE[mode],
            _SOURCE_CODE[source],
            _FLAG_CODE[damped],
            _FLAG_CODE[pending],
        )

    def repeat(self, start: int, stop: int, dt: float):
        """Write rows start to stop - 1 as copies of row start - 1, row k with
        time k * dt."""
        self.floats[start:stop] = self.floats[start - 1]
        self.floats[start:stop, _T] = np.arange(start, stop) * dt
        self.codes[start:stop] = self.codes[start - 1]

    def __len__(self) -> int:
        return len(self.floats)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Trace(self.floats[key], self.codes[key])
        i = range(len(self))[key]  # raises IndexError; negative counts from the end
        return next(_rows(self.floats[i : i + 1], self.codes[i : i + 1]))

    def __iter__(self):
        for a in range(0, len(self), ITER_ROWS):
            yield from _rows(self.floats[a : a + ITER_ROWS], self.codes[a : a + ITER_ROWS])

    def column(self, name: str) -> np.ndarray:
        """A field's column (a view): floats, (rows, width) floats for a vector
        field, or int8 codes for a coded field."""
        slot = SLOTS[name]
        block = self.floats if slot.code_of is None else self.codes
        return block[:, slot.index]

    def values(self, name: str) -> list:
        """A field's values as a list of Python floats or enum members."""
        slot = SLOTS[name]
        if slot.code_of is None:
            return self.column(name).tolist()
        return list(map(slot.field.codes.values.__getitem__, self.column(name).tolist()))

    def mask(self, name: str, value) -> np.ndarray:
        """Rows whose coded field holds ``value``."""
        return self.column(name) == SLOTS[name].code_of[value]
