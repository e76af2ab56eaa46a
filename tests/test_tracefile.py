
import dataclasses
import hashlib

import numpy as np
import pytest

from ssmcell import tracefile
from ssmcell.engine import Event, EventKind, run
from ssmcell.scenario import SimMode
from ssmcell.trace import SCHEMA, Trace, TraceRow
from ssmcell.tracefile import (
    TRACE_COLUMNS,
    TraceFileError,
    emit_profile_data,
    read_events,
    read_trace,
    trace_lines,
    write_events,
    write_trace,
)
from helpers import bundled, tiny_scenario, trace_from_rows


@pytest.fixture(scope="module")
def short_result():
    return run(tiny_scenario(duration=3.0))


class TestTraceRoundTrip:
    def test_write_read_identity(self, short_result, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(short_result.trace, path, {"scenario": "tiny"})
        back = read_trace(path)
        assert len(back) == len(short_result.trace)
        for a, b in zip(short_result.trace, back):
            assert a.t == b.t
            assert np.array_equal(a.q, b.q)
            assert np.array_equal(a.qdot, b.qdot)
            assert a.fraction == b.fraction
            assert a.mode == b.mode and a.source == b.source
            assert a.d_i == b.d_i and a.dyn_msd == b.dyn_msd
            assert a.pending == b.pending

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(TraceFileError):
            read_trace(path)

    def test_malformed_row_names_line(self, short_result, tmp_path):
        path = tmp_path / "trace.csv"
        lines = list(trace_lines(short_result.trace[:3]))
        lines[2] = lines[2].replace(lines[2].split(",")[0], "not_a_number", 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceFileError) as exc:
            read_trace(path)
        assert ":3:" in str(exc.value)

    def test_deterministic_bytes(self, short_result, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(short_result.trace, p1)
        write_trace(short_result.trace, p2)
        assert p1.read_bytes() == p2.read_bytes()


def reference_lines(trace):
    """The data lines of a trace, formatted row by row with one repr per value."""
    lines = []
    for row in trace:
        cells = []
        for f in SCHEMA:
            value = getattr(row, f.name)
            if f.codes is not None:
                cells.append(f.codes.texts[f.codes.values.index(value)])
            elif f.headers:
                cells.extend(repr(float(x)) for x in value)
            else:
                cells.append(repr(float(value)))
        lines.append(",".join(cells))
    return lines


def copy_of(trace):
    return Trace(trace.floats.copy(), trace.codes.copy())


class TestTimesOffTheGrid:
    """t texts come from the shared tick-grid texts only where t is k * CONTROL_PERIOD."""

    def check(self, trace, tmp_path):
        assert list(trace_lines(trace))[1:] == reference_lines(trace)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        back = read_trace(path)
        assert np.array_equal(back.floats.view(np.int64), trace.floats.view(np.int64))
        assert np.array_equal(back.codes, trace.codes)

    def test_on_the_grid(self, short_result, tmp_path):
        self.check(short_result.trace, tmp_path)

    def test_sliced_trace(self, short_result, tmp_path):
        self.check(short_result.trace[5:], tmp_path)

    def test_one_time_one_ulp_off(self, short_result, tmp_path, monkeypatch):
        monkeypatch.setattr(tracefile, "CHUNK_ROWS", 64)
        trace = copy_of(short_result.trace)
        trace.floats[70, 0] = np.nextafter(trace.floats[70, 0], np.inf)
        self.check(trace, tmp_path)
        assert list(trace_lines(trace))[71].split(",")[0] != repr(70 * 0.002)

    def test_negative_zero_time(self, tmp_path):
        row = TraceRow(t=-0.0, q=np.zeros(6), qdot=np.zeros(6), tcp=np.zeros(3))
        self.check(trace_from_rows([row]), tmp_path)

    def test_kept_texts_grow_row_by_row(self):
        kept = tracefile._TickTexts(limit=40)
        for stop in range(1, 45):
            start = stop // 3
            times = np.arange(start, stop) * 0.002
            assert kept.texts(times, start) == list(map(repr, times.tolist()))
            assert kept.match(list(map(repr, times.tolist())), start) == (stop <= 40)
            assert len(kept) == min(stop, 40)

    def test_bound_of_the_kept_texts(self, short_result, monkeypatch):
        kept = tracefile._TickTexts(limit=100)
        monkeypatch.setattr(tracefile, "_TICKS", kept)
        monkeypatch.setattr(tracefile, "CHUNK_ROWS", 64)
        long, short = short_result.trace, short_result.trace[:90]
        assert list(trace_lines(long))[1:] == reference_lines(long)
        assert len(kept) <= 100
        assert list(trace_lines(short))[1:] == reference_lines(short)
        assert len(kept) <= 100


class TestRowRuns:
    def test_signed_zeros_keep_their_texts(self, tmp_path):
        rows = [
            TraceRow(t=i * 0.002, q=np.zeros(6), qdot=np.zeros(6), tcp=np.zeros(3), fraction=x)
            for i, x in enumerate([0.0, -0.0, -0.0, 0.0])
        ]
        trace = trace_from_rows(rows)
        lines = list(trace_lines(trace))[1:]
        column = TRACE_COLUMNS.index("fraction")
        assert [line.split(",")[column] for line in lines] == ["0.0", "-0.0", "-0.0", "0.0"]
        assert lines == reference_lines(trace)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert np.array_equal(read_trace(path).floats.view(np.int64), trace.floats.view(np.int64))


class TestEvents:
    def test_round_trip(self, tmp_path):
        events = [
            Event(0.5, EventKind.ZONE_ENTER, "zone=warning;human=0"),
            Event(0.52, EventKind.MODE_SWITCH, "mode=collaborative;fraction=0.5"),
        ]
        path = tmp_path / "events.csv"
        write_events(events, path)
        assert read_events(path) == events

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("nope\n", encoding="utf-8")
        with pytest.raises(TraceFileError):
            read_events(path)

    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(b"t,kind,payload\n0.5,cycle_done,cycle=0\n0.6,cycle_done,\xe9\n")
        with pytest.raises(TraceFileError, match="events.csv:3: not UTF-8 text: byte 0xe9$"):
            read_events(path)

    @pytest.mark.parametrize(
        "line",
        [
            "1_0,cycle_done,cycle=0",
            "",
            " NaN,zone_enter,zone=warning;human=0",
            "nan,zone_enter,zone=warning;human=0",
            "inf,cycle_done,cycle=0",
            "+1.0,cycle_done,cycle=0",
            "2e-3,cycle_done,cycle=0",
            "1.0,cycle_finished,cycle=0",
            "1.0,cycle_done",
        ],
    )
    def test_what_the_writer_never_writes_names_its_line(self, line, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(f"t,kind,payload\n0.5,cycle_done,cycle=0\n{line}\n", encoding="utf-8")
        with pytest.raises(TraceFileError, match="events.csv:3: "):
            read_events(path)


class TestProfileData:
    def test_speeds_match_rows(self, short_result, tmp_path):
        path = tmp_path / "profile.csv"
        emit_profile_data(short_result.trace, path)
        lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "t_s,commanded_speed_m_s"
        assert len(lines) - 1 == len(short_result.trace)
        for line, rowd in zip(lines[1:], short_result.trace):
            t_text, v_text = line.split(",")
            assert float(t_text) == rowd.t
            assert float(v_text) == rowd.v_cap

    def test_zone_annotations_present(self, short_result, tmp_path):
        path = tmp_path / "profile.csv"
        emit_profile_data(short_result.trace, path)
        annotations = [l for l in path.read_text().splitlines() if l.startswith("# interval")]
        assert annotations

    def test_empty_trace_header_only(self, tmp_path):
        path = tmp_path / "profile.csv"
        emit_profile_data(trace_from_rows([]), path)
        assert path.read_text() == "t_s,commanded_speed_m_s\n"


# sha256 of the trace lines (each followed by a line feed) and of the profile
# file for 3 s proposed-mode runs, as written by the row-by-row writer that
# the columnar one replaced.
GOLDEN = {
    "approach_retreat": (
        "8d649968093451a2e3cfa38baab4e73adc6117288eb10010b6a706cb3e6df873",
        "a2d6271ad6f5c11448bd9efe85efa5c89f5daf6a423684986b352775d30adb23",
    ),
    "sorting_benchmark": (
        "9e35920354db2cab1aa118b9e9310588f1539e085f87b9acf4b0dc2ee39ebd29",
        "eaf814fd77a0c5099a3872470ea4c8166a1e592c51af6fb7176af7d6c2b6db49",
    ),
}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden_run(request):
    scenario = dataclasses.replace(bundled(request.param), duration=3.0)
    return request.param, run(scenario.with_mode(SimMode.PROPOSED))


def edge_rows():
    """Rows whose floats sit at the formatter's edges: signed zeros next to each
    other, NaN, infinities and subnormals."""
    specials = [0.0, -0.0, -0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324]
    rows = []
    for i, x in enumerate(specials):
        qdot = np.array([x, -0.0, 2.2250738585072014e-308, 1e-320, x, 0.1 + 0.2])
        rows.append(
            TraceRow(
                t=i * 0.002,
                q=np.full(6, x),
                qdot=qdot,
                tcp=np.array([x, 0.0, -0.0]),
                d_i=x,
                fraction=abs(x) if x == x else 0.0,
                lyap=x,
            )
        )
    return rows


class TestGoldenBytes:
    def test_trace_and_profile_digests(self, golden_run, tmp_path):
        name, result = golden_run
        h = hashlib.sha256()
        for line in trace_lines(result.trace):
            h.update(line.encode("utf-8") + b"\n")
        profile = tmp_path / "profile.csv"
        emit_profile_data(result.trace, profile)
        assert (h.hexdigest(), hashlib.sha256(profile.read_bytes()).hexdigest()) == GOLDEN[name]

    def test_write_read_write_identical(self, golden_run, tmp_path):
        _, result = golden_run
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(result.trace, first, {"scenario": "golden", "rows": len(result.trace)})
        back = read_trace(first)
        write_trace(back, second, {"scenario": "golden", "rows": len(back)})
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(back.floats.view(np.int64), result.trace.floats.view(np.int64))
        assert np.array_equal(back.codes, result.trace.codes)

    def test_row_list_and_columns_write_the_same_bytes(self, golden_run):
        _, result = golden_run
        rebuilt = trace_from_rows(list(result.trace))
        assert list(trace_lines(rebuilt)) == list(trace_lines(result.trace))

    def test_edge_values_round_trip(self, tmp_path):
        rows = edge_rows()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(trace_from_rows(rows), first)
        lines = first.read_text(encoding="utf-8").splitlines()
        # one repr per value, so signed zeros stay apart inside a run
        expected = [",".join(repr(float(x)) for x in r.q) for r in rows]
        assert [",".join(line.split(",")[1:7]) for line in lines[1:]] == expected
        back = read_trace(first)
        for a, b in zip(rows, back):
            for name in ("q", "qdot", "tcp"):
                bits_a, bits_b = getattr(a, name).view(np.int64), getattr(b, name).view(np.int64)
                assert np.array_equal(bits_a, bits_b)
            assert repr(a.d_i) == repr(b.d_i) and repr(a.lyap) == repr(b.lyap)
        write_trace(back, second)
        assert first.read_bytes() == second.read_bytes()

    def test_chunk_boundaries_do_not_change_bytes(self, golden_run, tmp_path, monkeypatch):
        _, result = golden_run
        whole = list(trace_lines(result.trace))
        monkeypatch.setattr(tracefile, "CHUNK_ROWS", 7)
        assert list(trace_lines(result.trace)) == whole
        path = tmp_path / "t.csv"
        write_trace(result.trace, path)
        assert np.array_equal(read_trace(path).floats, result.trace.floats, equal_nan=True)


# (column, text the writer never writes there)
PROBES = {
    "damped_2": ("damped", "2"),
    "pending_negative": ("pending", "-1"),
    "zone_case": ("occ_left", "Warning"),
    "t_nan": ("t", "nan"),
    "t_underscore": ("t", "1_0"),
    "mode_estop": ("mode", "estop"),
}


class TestReaderFailsClosed:
    ROWS = 300
    CHUNK = 64  # several chunks, so a bad line can sit inside one

    @pytest.fixture(scope="class")
    def lines(self):
        result = run(tiny_scenario(duration=self.ROWS * 0.002))
        return list(trace_lines(result.trace, {"scenario": "tiny", "rows": self.ROWS}))

    def write_probe(self, lines, path, probe, index, trailing_newline):
        column, text = PROBES[probe]
        lines = list(lines)
        fields = lines[index].split(",")
        fields[TRACE_COLUMNS.index(column)] = text
        lines[index] = ",".join(fields)
        path.write_text("\n".join(lines) + ("\n" if trailing_newline else ""), encoding="utf-8")

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_probe_mid_chunk_names_its_line(self, probe, lines, tmp_path, monkeypatch):
        monkeypatch.setattr(tracefile, "CHUNK_ROWS", self.CHUNK)
        path = tmp_path / "bad.csv"
        index = 3 + 2 * self.CHUNK + 10  # two metadata lines and the header come first
        self.write_probe(lines, path, probe, index, trailing_newline=True)
        with pytest.raises(TraceFileError) as exc:
            read_trace(path)
        assert f"{path}:{index + 1}:" in str(exc.value)

    @pytest.mark.parametrize("probe", sorted(PROBES))
    def test_probe_on_last_line_without_newline(self, probe, lines, tmp_path, monkeypatch):
        monkeypatch.setattr(tracefile, "CHUNK_ROWS", self.CHUNK)
        path = tmp_path / "bad.csv"
        self.write_probe(lines, path, probe, len(lines) - 1, trailing_newline=False)
        with pytest.raises(TraceFileError) as exc:
            read_trace(path)
        assert f"{path}:{len(lines)}:" in str(exc.value)

    def test_unprobed_file_without_final_newline_reads(self, lines, tmp_path, monkeypatch):
        monkeypatch.setattr(tracefile, "CHUNK_ROWS", self.CHUNK)
        path = tmp_path / "ok.csv"
        path.write_text("\n".join(lines), encoding="utf-8")
        assert len(read_trace(path)) == self.ROWS

    @pytest.mark.parametrize("text", ["+0.002", "2e-3", " 0.002", "0.0020", "NaN"])
    def test_float_spellings_the_writer_never_uses(self, text, lines, tmp_path):
        path = tmp_path / "bad.csv"
        fields = lines[4].split(",")
        fields[TRACE_COLUMNS.index("d_i")] = text
        path.write_text("\n".join(lines[:4] + [",".join(fields)] + lines[5:]) + "\n")
        with pytest.raises(TraceFileError, match=f"{path}:5:"):
            read_trace(path)

    @pytest.mark.parametrize("text", ["+0.002", "2e-3", " 0.002", "0.0020", "0.002 "])
    def test_time_spellings_the_writer_never_uses(self, text, lines, tmp_path):
        # line 5 holds row 1, whose t is 0.002 on the tick grid
        path = tmp_path / "bad.csv"
        fields = lines[4].split(",")
        assert fields[0] == "0.002"
        fields[0] = text
        path.write_text("\n".join(lines[:4] + [",".join(fields)] + lines[5:]) + "\n")
        with pytest.raises(TraceFileError, match=f"{path}:5: t: "):
            read_trace(path)

    @pytest.mark.parametrize("index", [0, 3 + 2 * CHUNK + 10], ids=["metadata", "mid_chunk"])
    def test_byte_that_is_not_utf8_names_its_line(self, index, lines, tmp_path, monkeypatch):
        monkeypatch.setattr(tracefile, "CHUNK_ROWS", self.CHUNK)
        path = tmp_path / "bad.csv"
        data = [line.encode("utf-8") for line in lines]
        data[index] = data[index][:2] + b"\xc3(" + data[index][2:]  # a lead byte, no follow-up
        path.write_bytes(b"\n".join(data) + b"\n")
        with pytest.raises(TraceFileError) as exc:
            read_trace(path)
        assert str(exc.value) == f"{path}:{index + 1}: not UTF-8 text: byte 0xc3"

    def test_short_line_in_chunk_names_its_line(self, lines, tmp_path):
        path = tmp_path / "bad.csv"
        broken = lines[:10] + [lines[10].rsplit(",", 1)[0]] + lines[11:]
        path.write_text("\n".join(broken) + "\n", encoding="utf-8")
        with pytest.raises(TraceFileError, match=f"{path}:11: wrong field count"):
            read_trace(path)
