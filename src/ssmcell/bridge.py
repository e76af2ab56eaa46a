"""Push-only stream of speed commands over a plain TCP socket.

Wire format: one record per line, ``seq t mode fraction min_distance
dynamic_msd`` separated by single spaces, numbers with six decimal places,
terminated by a line feed.  No handshake, no client-to-simulator path; the
simulation never blocks on the bridge.

Records arrive in tick order, in bursts of up to one output block or one
span of repeated ticks: ``engine.run`` publishes the rows of a block, at
least ``engine.LANDMARK_CHUNK`` ticks, at once.  A client's queue must hold
a burst at the decimation it reads.  At decimation 1 on
``approach_retreat`` the largest burst is 3,776 records, so a client that
reads with the default buffer of 4,096 receives all 17,000, and one with a
buffer of 1,024 or fewer is dropped.
"""

from __future__ import annotations

import socket
import threading
from collections import deque

SEND_TIMEOUT = 5.0  # s, a client stuck longer than this is dropped
DEFAULT_CLIENT_BUFFER = 4096  # queued records per client before it is dropped


class BridgeError(RuntimeError):
    pass


def format_record(
    seq: int, t: float, mode: str, fraction: float, min_distance: float, dynamic_msd: float
) -> bytes:
    return (
        f"{seq} {t:.6f} {mode} {fraction:.6f} {min_distance:.6f} {dynamic_msd:.6f}\n"
    ).encode("ascii")


class _Client:
    def __init__(self, conn: socket.socket, buffer_limit: int):
        self.conn = conn
        self.buffer_limit = buffer_limit
        self.queue: deque[bytes] = deque()
        self.cond = threading.Condition()
        self.alive = True
        self.finished = False
        self.thread = threading.Thread(target=self._writer, daemon=True)
        self.thread.start()

    def offer(self, record: bytes) -> bool:
        with self.cond:
            if not self.alive:
                return False
            if len(self.queue) >= self.buffer_limit:
                self._kill_locked()
                return False
            self.queue.append(record)
            self.cond.notify()
        return True

    def finish(self):
        with self.cond:
            self.finished = True
            self.cond.notify()

    def _kill_locked(self):
        self.alive = False
        self.cond.notify()
        try:
            self.conn.close()
        except OSError:
            pass

    def kill(self):
        with self.cond:
            self._kill_locked()

    def _writer(self):
        self.conn.settimeout(SEND_TIMEOUT)
        while True:
            with self.cond:
                while self.alive and not self.queue and not self.finished:
                    self.cond.wait()
                if not self.alive:
                    return
                if not self.queue:
                    if self.finished:
                        self._kill_locked()
                        return
                    continue
                record = self.queue.popleft()
            try:
                self.conn.sendall(record)
            except OSError:
                self.kill()
                return


class SpeedBridge:
    """Accepts any number of clients and pushes decimated command records to each.

    Slow clients whose queue exceeds the buffer limit are disconnected;
    publishing never blocks the caller.
    """

    def __init__(
        self,
        bind_address: tuple[str, int] = ("127.0.0.1", 0),
        decimation: int = 1,
        client_buffer: int = DEFAULT_CLIENT_BUFFER,
    ):
        if decimation < 1:
            raise BridgeError("decimation must be >= 1")
        self.decimation = decimation
        self.client_buffer = client_buffer
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._server.bind(bind_address)
        except OSError as exc:
            self._server.close()
            raise BridgeError(f"cannot bind {bind_address}: {exc}") from exc
        self._server.listen()
        self.address = self._server.getsockname()
        self._clients: list[_Client] = []
        self._lock = threading.Lock()
        self._msg_seq = 0
        self._closing = False
        self.dropped_clients = 0
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self._clients.append(_Client(conn, self.client_buffer))

    def client_count(self) -> int:
        with self._lock:
            return sum(1 for c in self._clients if c.alive)

    def publish(
        self,
        tick: int,
        t: float,
        mode: str,
        fraction: float,
        min_distance: float,
        dynamic_msd: float,
    ):
        """Queue one record for every connected client; drops overflowing clients."""
        if tick % self.decimation:
            return
        record = format_record(self._msg_seq, t, mode, fraction, min_distance, dynamic_msd)
        self._msg_seq += 1
        with self._lock:
            for client in self._clients:
                if client.alive and not client.offer(record):
                    self.dropped_clients += 1
            self._clients = [c for c in self._clients if c.alive]

    def close(self, flush: bool = True):
        """Stop accepting; optionally let writers drain their queues, then disconnect.

        The accept loop blocks in accept() until one connection of close's own
        wakes it.  A client still waiting in the listen backlog is accepted and
        closed at once, so it reads a clean end of stream instead of a reset.
        Calling close again is harmless.
        """
        self._closing = True
        if self._accept_thread.is_alive():
            try:
                socket.create_connection(self.address, timeout=1.0).close()
            except OSError:
                pass
            self._accept_thread.join(timeout=1.0)
        try:
            self._server.setblocking(False)
            while True:
                conn, _ = self._server.accept()
                conn.close()
        except OSError:  # backlog empty, or the listener is already closed
            pass
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            clients = list(self._clients)
        for client in clients:
            if flush:
                client.finish()
            else:
                client.kill()
        for client in clients:
            client.thread.join(timeout=SEND_TIMEOUT * 2)


def serve(
    bind_address: tuple[str, int] = ("127.0.0.1", 0),
    decimation: int = 1,
    client_buffer: int = DEFAULT_CLIENT_BUFFER,
) -> SpeedBridge:
    """Start a live bridge; pass the handle to engine.run(scenario, bridge=...)."""
    return SpeedBridge(bind_address, decimation, client_buffer)

