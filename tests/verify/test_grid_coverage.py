"""Every live-out instance lies in a tile of its group's grid.

The scheduler gives a 4-D output beside its mirrored copy the shifted
band row ``ax3 - 3``, whose values run from -3, and the copy the row
``ax3``, from 0.  Tile ``o`` of a row holds the values ``lo + size*o ..
lo + size*o + size - 1``, counted in every statement of the band from the
row's least value over all of their boxes (-3): counted from 0, the
instances with ``ax3 < 3`` fell in tile -1, outside the grid, and no
replay ran them; counted from each statement's own minimum, a statement
would run its instances in other tiles than the band's shifts order.
The bounds checker proves each live-out band row's range inside the
grid, and one grid per band row, in closed form, so such a program -- or
one tile too few -- is rejected.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core import diskcache
from repro.core.compiler import AkgOptions, build
from repro.core.errors import VerificationError
from repro.ir.tensor import compute, placeholder
from repro.poly.maps import BasicMap
from repro.runtime.reference import evaluate_tensors, numpy_dtype
from repro.tiling import reverse
from repro.verify import verify_result
from repro.verify.bounds import _membership_offsets, check_bounds
from repro.verify.mutate import drop_last_tile, misalign_grid, seeded_mutations
from tests.tiling.test_footprint_rows import WINDOWLESS


def _build(make, name, **options):
    with diskcache.disabled():
        return build(make(), name, options=AkgOptions(emit_trace=True, **options))


def _shifted_pair(n=8, shift=1):
    """``out1[i] = 2 A[i]`` for ``i < n`` and ``out2[i] = out1[i + shift]
    + 1`` for ``i < n - shift``, both live-out: one band, whose row of
    ``out1`` the scheduler shifts by ``-shift`` so each ``out1`` instance
    runs no later than its reader.  The two rows' minima differ."""
    a = placeholder((n,), name="A")
    out1 = compute((n,), lambda i: a[i] * 2.0, name="out1")
    out2 = compute((n - shift,), lambda i: out1[i + shift] + 1.0, name="out2")
    return [out1, out2]


SHIFTED_PAIRS = {
    f"pair_{n}_{shift}": (lambda n=n, shift=shift: _shifted_pair(n, shift))
    for n, shift in ((8, 1), (8, 2), (9, 1), (10, 3))
}


def _feed(outputs, seed=0):
    from repro.ir.lower import lower

    rng = np.random.default_rng(seed)
    return {
        t.name: (0.25 * rng.standard_normal(t.shape)).astype(numpy_dtype(t.dtype))
        for t in lower(outputs).inputs
    }


def _shifted(result):
    """``(group, stmt id, rows)`` of a live-out statement with a row whose
    box minimum is not 0."""
    for group in result.groups:
        by_id = {s.stmt_id: s for s in group.statements}
        for sid, rows in group.band_rows.items():
            if any(by_id[sid].box_bounds(row)[0] != 0 for row in rows):
                return group, sid, rows
    return None


@pytest.mark.parametrize("name", sorted(WINDOWLESS))
def test_a_shifted_band_row_replays_every_instance(name):
    make = WINDOWLESS[name]
    result = _build(make, name)
    assert _shifted(result) is not None  # the case this test is about
    feed = _feed(make())
    want = evaluate_tensors(make(), feed)
    for replayed in (result, pickle.loads(pickle.dumps(result))):
        got = replayed.execute(feed)
        assert set(got) == set(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), key
    assert verify_result(result) == {"schedule": True, "bounds": True, "sync": True}


def test_a_grid_counted_from_zero_is_rejected():
    """The relation a shifted row had when tiles were counted from 0."""
    result = _build(WINDOWLESS["relu_8x16x4x4_mirrored"], "from_zero")
    mutant = copy.deepcopy(result)
    group, sid, rows = _shifted(mutant)
    stmt = next(s for s in group.statements if s.stmt_id == sid)
    cons = list(stmt.domain().constraints)
    cons += reverse.tile_membership_constraints(rows, group.tile_sizes, group.tile_dims)
    relation = group.instance_relations[sid]
    group.instance_relations[sid] = BasicMap(relation.in_space, relation.out_space, cons)
    with pytest.raises(VerificationError, match="outside the tile grid"):
        verify_result(mutant)


@pytest.mark.parametrize("name", sorted(SHIFTED_PAIRS))
def test_statements_whose_minima_differ_share_one_grid(name):
    """A band whose rows start at other values in its two statements: the
    reader's tile never runs before the tile writing what it reads."""
    make = SHIFTED_PAIRS[name]
    result = _build(make, name, tile_sizes=[4])
    (group,) = result.groups
    by_id = {s.stmt_id: s for s in group.statements}
    minima = {by_id[sid].box_bounds(rows[0])[0] for sid, rows in group.band_rows.items()}
    assert len(minima) == 2 and group.origins == [min(minima)]
    feed = _feed(make())
    want = evaluate_tensors(make(), feed)
    for replayed in (result, pickle.loads(pickle.dumps(result))):
        got = replayed.execute(feed)
        for key in want:
            assert np.array_equal(got[key], want[key]), key
    assert verify_result(result) == {"schedule": True, "bounds": True, "sync": True}


def test_a_band_is_tiled_from_one_origin_per_row():
    """Every statement of the mirrored band holds the same row values in
    tile ``o``; a row whose origin is 0 is tiled by the row itself, as
    it always was."""
    result = _build(WINDOWLESS["relu_8x16x4x4_mirrored"], "aligned")
    (group,) = result.groups
    assert group.origins == [0, 0, 0, -3]
    by_id = {s.stmt_id: s for s in group.statements}
    for sid, rows in group.band_rows.items():
        relation = group.instance_relations[sid]
        for row, size, o, origin in zip(
            rows, group.tile_sizes, group.tile_dims, group.origins
        ):
            assert _membership_offsets(relation, row, size, o) == (
                origin, origin + size - 1
            )
        cons = list(by_id[sid].domain().constraints)
        cons += reverse.tile_membership_constraints(
            rows[:3], group.tile_sizes[:3], group.tile_dims[:3]
        )
        assert pickle.dumps(cons) == pickle.dumps(list(relation.constraints)[: len(cons)])


@pytest.mark.parametrize("name", ["relu_8x16x4x4_mirrored", "pair_8_1"])
def test_a_statement_tiled_from_another_origin_is_killed(name):
    make = {**WINDOWLESS, **SHIFTED_PAIRS}[name]
    result = _build(make, name, **({"tile_sizes": [4]} if "pair" in name else {}))
    mutant = misalign_grid(result)
    assert mutant is not None
    assert "misalign_grid" in dict(seeded_mutations(result))
    with pytest.raises(VerificationError):
        verify_result(mutant)
    # The bounds checker kills it on its own, whatever the schedule check
    # finds of the dependences between the two tiles.
    with pytest.raises(VerificationError, match="not aligned across the band"):
        check_bounds(mutant)
    assert verify_result(result)["bounds"]


@pytest.mark.parametrize("restored", [False, True])
def test_a_grid_one_tile_short_is_killed_by_the_coverage_check(restored):
    result = _build(WINDOWLESS["relu_8x16x4x4_mirrored"], "short")
    if restored:  # rows survive a pickle: the check runs on a cache hit
        result = pickle.loads(pickle.dumps(result))
    mutant = drop_last_tile(result)
    assert mutant is not None
    assert "drop_last_tile" in dict(seeded_mutations(result))
    with pytest.raises(VerificationError, match="outside the tile grid"):
        verify_result(mutant)
    assert verify_result(result)["bounds"]  # the original is untouched
