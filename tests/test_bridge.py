import itertools
import socket
import time

import pytest

from ssmcell.bridge import BridgeError, format_record, serve
from ssmcell.engine import run
from ssmcell.tracefile import write_trace
from helpers import tiny_scenario


def recv_all(sock, timeout=8.0):
    sock.settimeout(timeout)
    chunks = []
    try:
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    except socket.timeout:
        pass
    return b"".join(chunks)


def connect(address):
    s = socket.create_connection(address, timeout=5.0)
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return s


class TestWireFormat:
    def test_record_layout(self):
        rec = format_record(7, 1.23456789, "full", 1.0, 0.654321987, 0.3)
        assert rec == b"7 1.234568 full 1.000000 0.654322 0.300000\n"

    def test_decimation_must_be_positive(self):
        with pytest.raises(BridgeError):
            serve(decimation=0)


class TestLiveBridge:
    def test_two_clients_identical_streams(self):
        bridge = serve(decimation=1)
        try:
            a = connect(bridge.address)
            b = connect(bridge.address)
            deadline = time.monotonic() + 5
            while bridge.client_count() < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            for tick in range(50):
                bridge.publish(tick, tick * 0.002, "full", 1.0, 2.0, 0.3)
        finally:
            bridge.close()
        data_a = recv_all(a)
        data_b = recv_all(b)
        a.close()
        b.close()
        assert data_a == data_b
        assert data_a.count(b"\n") == 50

    def test_empty_stream_clean_end(self):
        bridge = serve(decimation=1)
        try:
            client = connect(bridge.address)
            deadline = time.monotonic() + 5
            while bridge.client_count() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            bridge.close()
        client.settimeout(5.0)  # a missing end of stream raises instead of passing
        try:
            assert client.recv(65536) == b""
        finally:
            client.close()

    def test_mid_run_join_no_replay(self):
        bridge = serve(decimation=1)
        try:
            for tick in range(10):
                bridge.publish(tick, tick * 0.002, "full", 1.0, 2.0, 0.3)
            client = connect(bridge.address)
            deadline = time.monotonic() + 5
            while bridge.client_count() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            for tick in range(10, 20):
                bridge.publish(tick, tick * 0.002, "full", 1.0, 2.0, 0.3)
        finally:
            bridge.close()
        data = recv_all(client)
        client.close()
        lines = data.decode().splitlines()
        assert lines
        assert lines[0].split()[0] == "10"  # first seq after join, nothing replayed

    def test_decimation_step(self):
        bridge = serve(decimation=10)
        try:
            client = connect(bridge.address)
            deadline = time.monotonic() + 5
            while bridge.client_count() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            for tick in range(100):
                bridge.publish(tick, tick * 0.002, "full", 1.0, 2.0, 0.3)
        finally:
            bridge.close()
        lines = recv_all(client).decode().splitlines()
        client.close()
        assert len(lines) == 10
        assert [int(l.split()[0]) for l in lines] == list(range(10))  # contiguous message seq

    def test_slow_client_dropped_without_blocking(self):
        bridge = serve(decimation=1, client_buffer=32)
        try:
            slow = connect(bridge.address)
            deadline = time.monotonic() + 5
            while bridge.client_count() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            t0 = time.monotonic()
            for tick in range(200_000):
                bridge.publish(tick, tick * 0.002, "full", 1.0, 2.0, 0.3)
            elapsed = time.monotonic() - t0
        finally:
            bridge.close()
        slow.close()
        assert bridge.dropped_clients >= 1
        assert elapsed < 5.0  # publisher never blocked on the stuck client

    def test_client_connecting_at_close_reads_clean_eof(self):
        # The late client's handshake completes in the listen backlog; close()
        # must end it with EOF rather than let the kernel reset it.
        for _ in range(20):
            bridge = serve(decimation=1)
            try:
                for tick in range(5):
                    bridge.publish(tick, tick * 0.002, "full", 1.0, 2.0, 0.3)
                late = connect(bridge.address)
            finally:
                bridge.close()
            bridge.close(flush=False)  # a second close is harmless
            late.settimeout(5.0)
            try:
                assert late.recv(65536) == b""
            finally:
                late.close()

    def test_close_with_a_client_waits_for_no_poll(self):
        # The accept loop blocks until close wakes it, and an idle writer
        # until close finishes it, so close waits for no timeout to run out.
        for _ in range(10):
            bridge = serve(decimation=1)
            client = connect(bridge.address)
            deadline = time.monotonic() + 5
            while bridge.client_count() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            t0 = time.perf_counter()
            bridge.close()
            elapsed = time.perf_counter() - t0
            client.settimeout(5.0)
            try:
                assert client.recv(65536) == b""
            finally:
                client.close()
            assert elapsed < 0.020


class TestBridgeDoesNotPerturbSimulation:
    def test_trace_identical_with_and_without_bridge(self, tmp_path):
        scenario = tiny_scenario(duration=1.5)
        plain = run(scenario)
        bridge = serve(decimation=5)
        client = connect(bridge.address)
        try:
            deadline = time.monotonic() + 5
            while bridge.client_count() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            bridged = run(scenario, bridge=bridge)
        finally:
            bridge.close()
        stream = recv_all(client)
        client.close()
        p1, p2 = tmp_path / "plain.csv", tmp_path / "bridged.csv"
        write_trace(plain.trace, p1)
        write_trace(bridged.trace, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # The stream is every fifth row of the trace, numbered from 0.
        rows = itertools.islice(bridged.trace, 0, None, 5)
        expected = b"".join(
            format_record(seq, r.t, r.mode.value, r.fraction, r.d_i, r.dyn_msd)
            for seq, r in enumerate(rows)
        )
        assert stream.count(b"\n") == 150
        assert stream == expected
