"""The mutation harness: every seeded corruption must be rejected.

A verifier that passes everything is worse than none — it launders
broken schedules as "verified".  Each mutation here models a real pass
bug (dropped sync flag, reordered statements, off-by-one tile box,
fused producer recomputed for the wrong tile, aliased arena slot); the
corresponding checker must raise the typed
:class:`~repro.core.errors.VerificationError`, and the CLI must turn it
into exit code 13.
"""

import pytest

from repro.core.compiler import AkgOptions, build
from repro.core.errors import EXIT_CODES, VerificationError
from repro.graph import compile_network, network
from repro.graph.subgraphs import paper_subgraphs
from repro.service.wire import demo_kernel
from repro.tools import faultinject
from repro.tools.akgc import main as akgc_main
from repro.verify import verify_network_plan, verify_result
from repro.verify.mutate import alias_arena, seeded_mutations, shift_fused_producer

CATALOG = [
    ("relu", [8, 32]),
    ("add", [8, 32]),
    ("softmax", [8, 32]),
    ("matmul", [16, 16, 16]),
    ("conv2d", [1, 4, 10, 10]),
]


@pytest.mark.parametrize("op,shape", CATALOG)
def test_every_seeded_mutant_is_killed(op, shape):
    result = build(demo_kernel(op, shape), f"mutate_{op}")
    mutants = seeded_mutations(result)
    assert mutants, f"no mutation applied to {op}"
    for name, mutant in mutants:
        with pytest.raises(VerificationError):
            verify_result(mutant)
    # Mutation worked on deep copies: the original still verifies clean.
    assert verify_result(result)["sync"]


def _subgraph5():
    return next(s for s in paper_subgraphs() if s.index == 5).build()


def test_fused_producer_containment_is_checked_and_has_teeth(monkeypatch):
    """Table 1 subgraph5 fuses its stencil producer (S0) into the live-out
    tile nest: the containment proof must run on the clean build, and a
    producer recomputed for the neighbouring tile must be rejected by it."""
    from repro.verify import schedule

    reasons = []
    proof = schedule._check_fused_producer_pair

    def recording(dep, group, pos):
        reasons.append(proof(dep, group, pos))
        return reasons[-1]

    monkeypatch.setattr(schedule, "_check_fused_producer_pair", recording)
    result = build(_subgraph5(), "fused_sg5", options=AkgOptions(verify=True))
    assert result.verified_clean
    assert {sid for g in result.groups for sid in g.fused_producer_ids} == {"S0"}
    assert reasons == [None]  # the branch ran once, clean

    mutant = shift_fused_producer(result)
    assert mutant is not None
    assert "shift_fused_producer" in dict(seeded_mutations(result))
    with pytest.raises(VerificationError, match="does not contain"):
        verify_result(mutant)
    assert reasons[-1] is not None
    # No fused producer, no site: the operator does not apply.
    assert shift_fused_producer(build(demo_kernel("relu", [8, 32]), "plain")) is None


def test_aliased_arena_slot_is_rejected():
    compiled = compile_network(network("alexnet_tiny"))
    mutant = alias_arena(compiled.plan)
    assert mutant is not None, "no aliasable slot pair in alexnet_tiny"
    with pytest.raises(VerificationError):
        verify_network_plan(mutant)
    # The pristine plan still passes.
    assert verify_network_plan(compiled.plan)["arena"]


def test_verification_failure_exits_13(capsys):
    faultinject.set_spec("verify.schedule:error")
    try:
        code = akgc_main(
            ["matmul", "--shape", "16,16,16", "--no-disk-cache", "--verify"]
        )
    finally:
        faultinject.set_spec(None)
    assert code == EXIT_CODES[VerificationError] == 13
    err = capsys.readouterr().err
    assert "VerificationError" in err
    assert "stage=verify.schedule" in err


def test_without_verify_flag_fault_site_never_fires(capsys):
    faultinject.set_spec("verify.schedule:error")
    try:
        code = akgc_main(["matmul", "--shape", "16,16,16", "--no-disk-cache"])
    finally:
        faultinject.set_spec(None)
    assert code == 0


@pytest.mark.parametrize("site", ["verify.schedule", "verify.sync"])
def test_a_rejection_names_its_verifier_stage(site):
    kernel = demo_kernel("matmul", [16, 16, 16])
    with faultinject.inject(f"{site}:error"):
        with pytest.raises(VerificationError) as info:
            build(kernel, "staged", options=AkgOptions(verify=True))
    assert info.value.stage == site


def test_stage_filters_see_the_verifier_stages():
    kernel = demo_kernel("matmul", [16, 16, 16])
    with faultinject.inject("verify.schedule:error@verify.bounds"):
        assert build(kernel, "other", options=AkgOptions(verify=True)).verified_clean
    with faultinject.inject("verify.schedule:error@verify.schedule"):
        with pytest.raises(VerificationError):
            build(kernel, "own", options=AkgOptions(verify=True))


def test_verifier_stages_run_unbudgeted(monkeypatch):
    """A stage budget bounds the compile stages it is passed to; the
    verifier opens its stages outside them and must not start timing out."""
    from repro import verify
    from repro.core import resilience
    from repro.core.resilience import StageBudget

    remaining = []
    check = verify.check_bounds
    monkeypatch.setattr(
        verify,
        "check_bounds",
        lambda result: remaining.append(
            (resilience.active_stage(), resilience.remaining_deadline())
        )
        or check(result),
    )
    options = AkgOptions(verify=True, budget=StageBudget(stage_seconds=60.0))
    build(demo_kernel("relu", [8, 32]), "unbudgeted", options=options)
    assert remaining == [("verify.bounds", None)]
