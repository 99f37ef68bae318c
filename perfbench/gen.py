"""Open-loop load generator for the ``equi-gateway`` workload.

Runs as its own process and imports nothing from the program.

    python3 perfbench/gen.py PORT RATE

Protocol on standard input and output:

1. reads newline-terminated record frames from stdin until an empty
   line;
2. connects one TCP connection to ``127.0.0.1:PORT`` and prints
   ``ready``;
3. waits for a ``go`` line, takes that instant as ``t0`` and sends
   record ``i`` at ``t0 + i / RATE`` whether or not earlier records
   were answered (an open loop; a late send goes out at once);
4. prints one JSON object: ``t0``, each record's send lag behind its
   schedule, the part of that lag the generator caused itself by
   sleeping past the due time (``overslept``, carried over to the
   records it delayed in turn), and each reply's arrival time and
   status, in record order (the gateway answers in arrival order on a
   connection).  Time spent blocked in a send is never ``overslept``:
   it is the system's backpressure.

All times are ``time.monotonic()``, which is system-wide on Linux, so
the benchmark process compares them with its own clock.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

#: Seconds to wait for the last reply after the last send.
REPLY_GRACE = 30.0


def read_replies(sock: socket.socket, expected: int, arrivals: list,
                 statuses: list) -> None:
    buffer = b""
    while len(statuses) < expected:
        try:
            data = sock.recv(65536)
        except (socket.timeout, OSError):
            return
        if not data:
            return
        now = time.monotonic()
        buffer += data
        *lines, buffer = buffer.split(b"\n")
        for line in lines:
            if line:
                arrivals.append(now)
                statuses.append(json.loads(line).get("status", "?"))


def main(port: int, rate: float) -> None:
    frames = []
    for line in sys.stdin.buffer:
        if line == b"\n":
            break
        frames.append(line)
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(len(frames) / rate + REPLY_GRACE)
    arrivals: list[float] = []
    statuses: list[str] = []
    reader = threading.Thread(target=read_replies,
                              args=(sock, len(frames), arrivals, statuses))
    print("ready", flush=True)
    if sys.stdin.buffer.readline().strip() != b"go":
        raise SystemExit("gen.py: expected 'go' on stdin")
    reader.start()
    t0 = time.monotonic()
    lags, overslept = [], []
    own = 0.0
    for i, frame in enumerate(frames):
        due = t0 + i / rate
        # What is left of an earlier oversleep still delays this record.
        own = max(0.0, own - 1.0 / rate) if i else 0.0
        wait = due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
            own = time.monotonic() - due
        lags.append(time.monotonic() - due)
        overslept.append(own)
        sock.sendall(frame)
    reader.join()
    sock.close()
    json.dump({"t0": t0, "lag": lags, "overslept": overslept,
               "arrivals": arrivals, "statuses": statuses}, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), float(sys.argv[2]))
