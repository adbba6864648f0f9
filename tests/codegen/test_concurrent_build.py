"""Concurrent builds must emit the serial program, byte for byte.

Flag-event ids used to come from one process-global counter that every
program build reset: two service workers compiling at once interleaved
their ids (a different ``program_sha256`` for the same kernel) and a
reset could hand a sibling duplicate ids inside one program.
"""

import hashlib
import sys
import threading

from repro.core import diskcache
from repro.core.compiler import AkgOptions, build
from repro.service.wire import demo_kernel

KERNELS = (("matmul", [48, 40, 32]), ("softmax", [16, 48]))
THREADS = 6
ROUNDS = 3


def _program_sha256(op, shape):
    program = build(demo_kernel(op, shape), op, options=AkgOptions()).program
    return hashlib.sha256(program.dump().encode()).hexdigest()


def test_threads_building_two_kernels_match_the_serial_sha256():
    diskcache.set_disk_cache_enabled(False)  # every build runs codegen
    serial = {op: _program_sha256(op, shape) for op, shape in KERNELS}
    got, errors = [], []
    barrier = threading.Barrier(THREADS)

    def worker(k):
        try:
            barrier.wait(timeout=60)
            for r in range(ROUNDS):
                op, shape = KERNELS[(k + r) % len(KERNELS)]
                got.append((op, _program_sha256(op, shape)))
        except BaseException as exc:  # surfaced below, in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(got) == THREADS * ROUNDS
    for op, sha in got:
        assert sha == serial[op], f"{op}: concurrent build differs from serial"
