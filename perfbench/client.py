"""Live bridge consumer for the approach workload, in a process of its own.

    python3 perfbench/client.py HOST PORT

Connects to the bridge, reads until the bridge ends the stream, then writes
every byte it received to standard output.
"""

import socket
import sys

CONNECT_TIMEOUT = 10.0  # s


def main() -> int:
    host, port = sys.argv[1], int(sys.argv[2])
    chunks = []
    with socket.create_connection((host, port), timeout=CONNECT_TIMEOUT) as sock:
        sock.settimeout(None)  # the stream lasts as long as the run
        while data := sock.recv(65536):
            chunks.append(data)
    sys.stdout.buffer.write(b"".join(chunks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
