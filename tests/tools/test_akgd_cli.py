"""The real ``python -m repro.tools.akgd`` process, end to end.

``tests/service/test_daemon.py`` drives the server in-process; this is
the one place the CLI entry point itself is launched: ``--port 0
--ready-file``, eight mixed requests down one kept-alive connection,
``shutdown``, and a clean exit.
"""

import os
import subprocess
import sys
import time

from repro.service.client import ServiceClient

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

PAYLOADS = [
    {"kind": "compile", "op": "relu", "shape": [32, 48]},
    {"kind": "compile", "op": "relu", "shape": [32, 48]},  # duplicate
    {"kind": "compile", "op": "matmul", "shape": [16, 16, 16]},
    {"kind": "compile", "op": "matmul", "shape": [16, 16, 16]},  # duplicate
    {"kind": "compile", "op": "add", "shape": [24, 24]},
    {"kind": "replay", "op": "relu", "shape": [8, 12], "seed": 3},
    {"kind": "compile", "op": "relu", "shape": [16, 16],
     "fault_spec": "storage.promote:error"},  # the bad one
    {"kind": "compile", "op": "softmax", "shape": [16, 32]},
]


def test_mixed_requests_then_shutdown_exits_zero(tmp_path):
    ready, log = tmp_path / "akgd.addr", tmp_path / "akgd.log"
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    with open(log, "w") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.akgd", "--port", "0",
             "--workers", "2", "--ready-file", str(ready)],
            env=env, stdout=out, stderr=subprocess.STDOUT,
        )
    try:
        deadline = time.monotonic() + 30
        while not (ready.exists() and ready.read_text().strip()):
            assert proc.poll() is None, log.read_text()
            assert time.monotonic() < deadline, "akgd never became ready"
            time.sleep(0.05)
        port = int(ready.read_text().split()[1])

        with ServiceClient(port=port, timeout=300.0) as client:
            responses = [client.request(p) for p in PAYLOADS]
            bad = [r for r in responses if not r["ok"]]
            assert len(bad) == 1 and len(responses) - len(bad) == 7
            assert bad[0]["error"]["type"] == "CodegenError"
            assert bad[0]["error"]["exit_code"] == 8
            # Duplicates are bit-identical to their originals.
            assert responses[1]["program_sha256"] == responses[0]["program_sha256"]
            assert responses[3]["program_sha256"] == responses[2]["program_sha256"]
            # The daemon survived the faulted request and still answers.
            assert client.ping()
            stats = client.stats()
            # Duplicates may be answered from the memo instead of built.
            assert stats["completed"] + stats["memo_hits"] >= 7
            assert stats["failed"] == 1
            # 8 requests + the ping shared one connection (the stats
            # answer itself is not yet counted).
            assert stats["server"]["connections_accepted"] == 1
            assert stats["server"]["requests_served"] == 9
            assert client.shutdown()
        assert proc.wait(timeout=30) == 0, log.read_text()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
