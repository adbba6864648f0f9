"""The Sec. 3.8 race check runs inside every build.

``backend_build`` checks the emitted program's set/wait flags and
barriers before it returns, so a racy program never reaches the disk
cache, the tuner, a network plan or an ``akgd`` client.  The mutant here
is a code generator that drops one set/wait pair.
"""

import pytest

from repro.autotune.tuner import tune_tile_sizes
from repro.core import compiler, diskcache
from repro.core.compiler import AkgOptions, build
from repro.core.errors import VerificationError, exit_code_for
from repro.core.frontend import _frontend_cache_key
from repro.hw.isa import walk
from repro.sched.scheduler import SchedulerOptions
from repro.service.wire import demo_kernel

from tests.service.conftest import running_daemon  # noqa: F401 -- a fixture


def _drop_first_pair(program):
    """Delete the first ``SetFlag`` and the ``WaitFlag`` that consumes it."""
    for _, _, instr, owner, index in walk(program.instructions):
        if instr.sync != "set":
            continue
        edge = (instr.src_pipe, instr.dst_pipe, instr.event)
        for later in range(index + 1, len(owner)):
            other = owner[later]
            if other.sync == "wait" and (other.src_pipe, other.dst_pipe, other.event) == edge:
                del owner[later]
                del owner[index]
                return program
    raise AssertionError("the program has no set/wait pair to drop")


@pytest.fixture()
def racy_codegen(monkeypatch):
    emit = compiler._emit
    monkeypatch.setattr(
        compiler, "_emit", lambda *args, **kw: _drop_first_pair(emit(*args, **kw))
    )


def _program_key(name, options):
    frontend_key, _ = _frontend_cache_key(
        demo_kernel("relu", [16, 24]), name, None, SchedulerOptions()
    )
    return compiler._program_cache_key(frontend_key, options)


def test_a_racy_program_raises_and_is_never_stored(racy_codegen):
    options = AkgOptions()
    with pytest.raises(VerificationError) as info:
        build(demo_kernel("relu", [16, 24]), "racy", options=options)
    assert info.value.stage == "verify.sync"
    assert exit_code_for(info.value) == 13
    assert diskcache.load(_program_key("racy", options)) is None
    assert diskcache.disk_cache_stats()["stores"] == 1  # the front-end only


def test_the_clean_build_is_stored_after_the_racy_one(racy_codegen, monkeypatch):
    with pytest.raises(VerificationError):
        build(demo_kernel("relu", [16, 24]), "racy")
    monkeypatch.undo()
    result = build(demo_kernel("relu", [16, 24]), "racy")
    assert diskcache.load(_program_key("racy", AkgOptions())) is not None
    assert not result.resilience.degraded


def test_a_tuner_candidate_is_checked_and_never_memoized_infeasible(racy_codegen):
    with pytest.raises(VerificationError):
        tune_tile_sizes(
            demo_kernel("relu", [16, 24]), "racy_tune", first_round=2,
            round_size=1, max_rounds=1,
        )
    assert diskcache.disk_cache_stats()["stores"] == 1  # the front-end only


def test_akgd_replies_typed_and_memoizes_nothing(racy_codegen, running_daemon, monkeypatch):
    client = running_daemon(workers=1, default_stage_seconds=120.0).client()
    bad = client.compile("relu", [16, 24])
    assert bad["ok"] is False
    assert bad["error"]["type"] == "VerificationError"
    assert bad["error"]["exit_code"] == 13
    monkeypatch.undo()
    good = client.compile("relu", [16, 24])
    assert good["ok"] is True
    assert good["cached"] is False
