"""Self-test of the serve_mixed load generator against a stub daemon that
refuses every job: the run must stop and count the failures instead of
spawning rounds forever.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import stat
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import serve_mixed  # noqa: E402

# Speaks dise_serve's line protocol on --socket, but answers every job
# `error: <id> ...`, bulk ones after a pretend run so interactive jobs
# arrive meanwhile.
STUB = r'''#!/usr/bin/env python3
import os, socket, sys, threading, time

path = sys.argv[sys.argv.index("--socket") + 1]
server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
server.bind(path)
server.listen()
next_id = [0]
lock = threading.Lock()


def serve(conn):
    buf = b""
    while True:
        data = conn.recv(4096)
        if not data:
            return
        buf += data
        *lines, buf = buf.split(b"\n")
        for line in lines:
            line = line.decode().strip()
            if line == "shutdown":
                conn.sendall(b"ok shutting down\n")
                os._exit(0)
            elif line == "stats":
                conn.sendall(b"{}\n")
            elif line:
                with lock:
                    next_id[0] += 1
                    job = next_id[0]
                if line.startswith("fig6_top"):
                    time.sleep(0.1)
                conn.sendall(f"queued {job}\nerror: {job} stub refuses every job\n".encode())


while True:
    conn, _ = server.accept()
    threading.Thread(target=serve, args=(conn,), daemon=True).start()
'''


class BrokenDaemonTest(unittest.TestCase):
    def test_a_daemon_that_fails_every_job_stops_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            stub = Path(tmp) / "stub_serve"
            stub.write_text(STUB)
            stub.chmod(stub.stat().st_mode | stat.S_IXUSR)
            start = time.monotonic()
            served = serve_mixed.run(str(stub), dict(os.environ), Path(tmp) / "work",
                                     seed=1, seconds=1.0, tracer=None, trace=False)
            self.assertLess(time.monotonic() - start, 20.0)

        rounds = served["rounds"]
        self.assertEqual(len(rounds), 1)
        jobs = rounds[0]["jobs"]
        self.assertTrue(any(j.tenant == "interactive" for j in jobs))
        self.assertTrue(all(j.error and j.error.startswith("error:") for j in jobs))
        self.assertTrue(all(not j.done for j in jobs))
        self.assertEqual(served["shortfall"], serve_mixed.MIN_INTERACTIVE)
        self.assertIn("finished no interactive job", served["failures"][-1])
        # The set-up probes still time the stub's spawn-to-accept.
        self.assertEqual(len(served["setup_s"]), serve_mixed.SETUP_PROBES)


if __name__ == "__main__":
    unittest.main()
