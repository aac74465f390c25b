"""The null request for the ``campaign-serve`` workload's warm reads.

Usage::

    python3 perfbench/echo.py

Serves ``POST`` on an ephemeral port with the campaign daemon's HTTP
stack (``ThreadingHTTPServer``, HTTP/1.1 keep-alive, no Nagle) and
nothing of ``repro`` behind it: each request's JSON body comes back
wrapped in ``{"echo": ...}``.  Prints ``port <n>`` and serves until its
standard input closes.

It runs in a process of its own, so its latency follows the host
(CPU speed, scheduling, loopback) and not the daemon's process state
(its threads, heap or garbage collector).
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class EchoHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_POST(self) -> None:  # noqa: N802 - stdlib method name
        length = int(self.headers.get("Content-Length") or 0)
        request = json.loads(self.rfile.read(length) or b"null")
        body = (json.dumps({"echo": request}, sort_keys=True)
                + "\n").encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def main() -> int:
    server = ThreadingHTTPServer(("127.0.0.1", 0), EchoHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
