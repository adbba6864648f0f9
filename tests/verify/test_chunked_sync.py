"""Chunked reductions are sync-clean under every policy.

A group whose contraction streams K in chunks (``reduce_chunks > 1``)
wraps the chunked stages in a loop that is one stage of the tile's
chain: the policy must order the inbound loads before the loop and the
loop's last mmad before the L0C drain.  These builds each carry a K-chunk
loop; before that loop was linked into the chain, every one of them
failed the happens-before check.
"""

import pytest

from repro.cce import cce_expert_build
from repro.codegen.program import CHUNK_LOOP_LABEL
from repro.core.compiler import AkgOptions, build
from repro.core.errors import VerificationError
from repro.hw.isa import walk
from repro.hw.spec_lang import parse_npu_spec
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.tvmbaseline.compiler import tvm_build
from repro.verify import check_sync, verify_result
from repro.verify.mutate import drop_chunk_exit_sync


def _matmul_256x1024x256():
    a = placeholder((256, 1024), "fp16", name="A")
    b = placeholder((1024, 256), "fp16", name="B")
    return ops.matmul(a, b, name="out")


def _conv2d_16x32():
    d = placeholder((1, 16, 32, 32), "fp16", name="D")
    w = placeholder((16, 16, 3, 3), "fp16", name="W")
    return ops.conv2d(d, w, stride=(1, 1), padding=(1, 1), name="out")


#: An L1 small enough that conv2d_16x32 splits its K (the default machine
#: holds it whole).
SMALL_L1 = "buf L1 (131072)"

BUILDERS = {
    "akg": lambda outs, hw: build(outs, "chunked", hw=hw),
    "tvm": lambda outs, hw: tvm_build(outs, "chunked", hw=hw),
    "naive_sync": lambda outs, hw: build(
        outs, "chunked", hw=hw, options=AkgOptions(sync_policy="naive")
    ),
    "cce_expert": lambda outs, hw: cce_expert_build(outs, "chunked", hw=hw),
}

CASES = {
    "matmul_256x1024x256": (_matmul_256x1024x256, None),
    "conv2d_16x32_small_l1": (_conv2d_16x32, SMALL_L1),
}


def _chunk_loops(result):
    return [
        instr
        for _, _, instr, _, _ in walk(result.program.instructions, loops=True)
        if instr is not None and instr.body is not None and instr.label == CHUNK_LOOP_LABEL
    ]


@pytest.mark.parametrize("compiler", sorted(BUILDERS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_chunked_reduction_is_sync_clean(case, compiler):
    kernel, overlay = CASES[case]
    hw = parse_npu_spec(overlay).to_hardware_spec() if overlay else None
    result = BUILDERS[compiler](kernel(), hw)
    loops = _chunk_loops(result)
    assert len(loops) == 1 and loops[0].count >= 2, "no K-chunk loop built"
    check_sync(result)


def test_dropped_chunk_exit_sync_is_killed_and_runs_faster():
    result = build(_matmul_256x1024x256(), "chunked")
    mutant = drop_chunk_exit_sync(result)
    assert mutant is not None
    with pytest.raises(VerificationError, match="unsynchronized"):
        verify_result(mutant)
    # The race was free cycles: the drain stopped waiting for the mmads.
    assert mutant.cycles() < result.cycles()
    # Mutation worked on a deep copy: the original still verifies clean.
    check_sync(result)
    # No chunked group, no site.
    assert drop_chunk_exit_sync(build(_conv2d_16x32(), "whole")) is None
