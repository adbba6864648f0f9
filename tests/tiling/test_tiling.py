"""Tests for band tiling, the reverse strategy and post-tiling fusion."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.compiler import AkgOptions, build
from repro.ir import lower, ops
from repro.ir.tensor import compute, placeholder, reduce_axis, te_sum
from repro.poly.affine import AffineExpr, Constraint, var
from repro.runtime.reference import evaluate_tensors
from repro.sched.clustering import conservative_clustering
from repro.sched.deps import compute_dependences
from repro.sched.scheduler import PolyScheduler
from repro.sched.tree import BandNode, ExtensionNode, MarkNode
from repro.fusion.posttile import apply_post_tiling_fusion
from repro.tiling.reverse import liveout_instance_relation
from repro.tiling.tile import tile_band
from repro.verify import check_dependences
from tests.poly._box import ilp_box
from tests.tiling._reference_footprint import compose, fm_producer_relations


def _gather(idx, i):
    """Index expression reading through an index tensor (non-affine)."""
    return idx[i]


def tile_box(relation, tile_point):
    """Box hull of what ``relation`` maps the tile ``tile_point`` to, or
    ``None`` when that tile maps to nothing."""
    fixed = [Constraint.eq(var(d), v) for d, v in tile_point.items()]
    return ilp_box(relation.constraints + fixed, relation.out_space.dims)


def running_example(H=12, W=12, KH=3, KW=3):
    """The Fig. 3 pattern: bias add -> conv -> abs -> relu."""
    a = placeholder((H, W), name="A")
    a1 = ops.scalar_add(a, 1.0, name="A1")
    b = placeholder((KH, KW), name="B")
    kh = reduce_axis((0, KH), "kh")
    kw = reduce_axis((0, KW), "kw")
    c = compute(
        (H - KH + 1, W - KW + 1),
        lambda h, w: te_sum(a1[h + kh, w + kw] * b[kh, kw], axis=(kh, kw)),
        name="C",
    )
    c1 = ops.abs_op(c, name="C1")
    c2 = ops.relu(c1, name="C2")
    return c2


def two_offset_consumers():
    """One producer read by two consumers, one row down and one column
    right: the producer's per-tile interval must cover both reads."""
    a = placeholder((12, 12), name="A")
    p = ops.scalar_add(a, 1.0, name="P")
    down = compute((11, 12), lambda h, w: p[h + 1, w] * 2.0, name="DOWN")
    right = compute((12, 11), lambda h, w: p[h, w + 1] * 3.0, name="RIGHT")
    return [down, right]


def scheduled(out):
    kernel = lower(out)
    deps = compute_dependences(kernel)
    clustering = conservative_clustering(kernel, deps)
    tree = PolyScheduler().schedule_kernel(kernel, deps, clustering)
    return kernel, deps, clustering, tree


class TestTileBand:
    def test_tile_band_structure(self):
        a = placeholder((32, 32), name="A")
        b = ops.relu(a, name="B")
        kernel, deps, clustering, tree = scheduled(b)
        band = tree.find_all(BandNode)[0]
        tiled = tile_band(band, [8, 8])
        assert tiled.tile_sizes == [8, 8]
        assert tiled.child is band

    def test_tile_size_validation(self):
        a = placeholder((32, 32), name="A")
        b = ops.relu(a, name="B")
        _, _, _, tree = scheduled(b)
        band = tree.find_all(BandNode)[0]
        with pytest.raises(ValueError):
            tile_band(band, [8])
        with pytest.raises(ValueError):
            tile_band(band, [8, 0])

    def test_tiled_tree_remains_legal(self):
        a = placeholder((32, 32), name="A")
        b = ops.scalar_add(a, 1.0, name="B")
        c = ops.relu(b, name="C")
        result = build(c, "tiled", options=AkgOptions(tile_sizes=[8, 8]))
        assert result.tile_sizes == [8, 8]
        assert result.groups[0].tile_counts == [4, 4]
        check_dependences(result)

    def test_non_permutable_band_rejected(self):
        band = BandNode(
            {"S0": [var("i"), var("j")]}, None, permutable=False
        )
        with pytest.raises(ValueError):
            tile_band(band, [4, 4])
        # But allowed when explicitly requested (1-row-at-a-time semantics).
        tiled = tile_band(band, [4, 4], require_permutable=False)
        assert tiled.tile_sizes == [4, 4]


class TestReverseStrategy:
    def test_liveout_instance_relation_counts(self):
        a = placeholder((16,), name="A")
        b = ops.relu(a, name="B")
        kernel = lower(b)
        stmt = kernel.statements[0]
        rows = [AffineExpr.variable(stmt.iter_names[0])]
        rel = liveout_instance_relation(stmt, rows, [4], ["o0"])
        # Tile 0 covers instances 0..3.
        assert tile_box(rel, {"o0": 0}) == {stmt.iter_names[0]: (0, 3)}
        assert tile_box(rel, {"o0": 3}) == {stmt.iter_names[0]: (12, 15)}

    def test_overlapped_producer_tiles_match_paper_formula(self):
        """Producer tile extent must be T + KH - 1 (the paper's overlap),
        in the fused group's span relation as in the FM preimage."""
        out = running_example(H=12, W=12, KH=3, KW=3)
        kernel, deps, clustering, tree = scheduled(out)
        T = 4
        [group] = apply_post_tiling_fusion(tree, kernel, clustering, [T, T]).groups
        assert group.fused_producer_ids == ["S0"]
        producer = group.statements[0]
        fm = fm_producer_relations(group, deps)["S0"]
        h_dim, w_dim = producer.iter_names
        for rel in (group.instance_relations["S0"], fm):
            # Tile (0, 0): h in [0, T+KH-2] = [0, 5].
            box = tile_box(rel, {"o0": 0, "o1": 0})
            assert box[h_dim] == (0, T + 3 - 2)
            assert box[w_dim] == (0, T + 3 - 2)
            # Interior tile (1, 1) starts at T*1 and overlaps the next KH-1 rows.
            box = tile_box(rel, {"o0": 1, "o1": 1})
            assert box[h_dim] == (T, 2 * T + 3 - 2)

    def test_two_consumers_get_one_covering_relation(self):
        """A producer read by two fused consumers at different offsets gets
        one relation, the hull of both reads, that covers every producer
        instance either consumer reads in a tile."""
        kernel, deps, clustering, tree = scheduled(two_offset_consumers())
        T = 4
        [group] = apply_post_tiling_fusion(tree, kernel, clustering, [T, T]).groups
        assert group.fused_producer_ids == ["S0"]
        producer = group.statements[0]
        rel = group.instance_relations["S0"]
        h, w = producer.iter_names
        members = rel.wrap()
        for o0 in range(3):
            for o1 in range(3):
                needed = {
                    (i + 1, j)
                    for i in range(T * o0, min(T * o0 + T, 11))
                    for j in range(T * o1, T * o1 + T)
                } | {
                    (i, j + 1)
                    for i in range(T * o0, T * o0 + T)
                    for j in range(T * o1, min(T * o1 + T, 11))
                }
                for i, j in needed:
                    assert members.contains({"o0": o0, "o1": o1, h: i, w: j})

    def test_tile_footprint_composition(self):
        """tile -> instances -> tensor elements composition."""
        a = placeholder((16, 16), name="A")
        b = ops.relu(a, name="B")
        kernel = lower(b)
        stmt = kernel.statements[0]
        rows = [AffineExpr.variable(d) for d in stmt.iter_names]
        inst = liveout_instance_relation(stmt, rows, [4, 8], ["o0", "o1"])
        read_map = stmt.reads[0].as_map(stmt.space)
        fp = compose(inst, read_map)
        box = tile_box(fp, {"o0": 1, "o1": 0})
        assert box == {"A_d0": (4, 7), "A_d1": (0, 7)}


class TestPostTilingFusion:
    def test_running_example_fused(self):
        out = running_example(H=12, W=12)
        kernel, deps, clustering, tree = scheduled(out)
        result = apply_post_tiling_fusion(tree, kernel, clustering, [4, 4])
        # One fused tile nest containing everything.
        assert len(result.groups) == 1
        group = result.groups[0]
        assert group.fused_producer_ids == ["S0"]
        assert set(group.liveout_ids) == {"S1", "S2", "S3", "S4"}
        assert group.tile_counts == [3, 3]  # ceil(10/4) = 3 per dim
        # Tree carries the extension and the skip mark of Fig. 3(e).
        assert result.tree.find_all(ExtensionNode)
        assert "skipped" in [m.name for m in result.tree.find_all(MarkNode)]

    def test_fused_tree_is_legal_outside_skipped(self):
        out = running_example(H=12, W=12)
        kernel, deps, clustering, tree = scheduled(out)
        result = apply_post_tiling_fusion(tree, kernel, clustering, [4, 4])
        assert result.groups[0].fused_producer_ids == ["S0"]
        # The verifier reads a result's kernel and tiled groups only; at
        # these sizes build() measures the split variant faster and keeps
        # that, so the fused groups are handed over directly.
        check_dependences(SimpleNamespace(kernel=kernel, groups=result.groups))

    def test_producer_instances_cover_consumer_needs(self):
        """Union over tiles of extended producer instances covers the
        producer instances every consumer read requires."""
        out = running_example(H=10, W=10)
        kernel, deps, clustering, tree = scheduled(out)
        result = apply_post_tiling_fusion(tree, kernel, clustering, [4, 4])
        group = result.groups[0]
        producer = next(s for s in kernel.statements if s.stmt_id == "S0")
        rel = group.instance_relations["S0"]
        covered = set()
        for o0 in range(group.tile_counts[0]):
            for o1 in range(group.tile_counts[1]):
                box = tile_box(rel, {"o0": o0, "o1": o1})
                if box is None:
                    continue
                h_dim, w_dim = producer.iter_names
                for h in range(box[h_dim][0], box[h_dim][1] + 1):
                    for w in range(box[w_dim][0], box[w_dim][1] + 1):
                        covered.add((h, w))
        # Every producer instance the convolution needs is covered.
        needed = {
            (h, w) for h in range(10) for w in range(10)
        }  # conv consumes the full 10x10 bias-added map (8x8 out + 3x3 k)
        assert needed <= covered

    def test_producer_shared_by_two_consumers_replays_exactly(self):
        outputs = two_offset_consumers()
        result = build(outputs, "k", options=AkgOptions(emit_trace=True))
        [group] = result.groups
        assert group.fused_producer_ids == ["S0"]
        assert set(group.liveout_ids) == {"S1", "S2"}
        x = np.random.default_rng(0).standard_normal((12, 12)).astype(np.float32)
        ref = evaluate_tensors(outputs, {"A": x})
        got = result.execute({"A": x})
        for name in ("DOWN", "RIGHT"):
            np.testing.assert_allclose(got[name], ref[name], rtol=1e-6)

    def test_pointwise_chain_no_extension(self):
        a = placeholder((16, 16), name="A")
        b = ops.scalar_add(a, 1.0, name="B")
        c = ops.relu(b, name="C")
        kernel, deps, clustering, tree = scheduled(c)
        result = apply_post_tiling_fusion(tree, kernel, clustering, [8, 8])
        group = result.groups[0]
        # Both statements are live-out (pointwise merge); no extension needed.
        assert not group.fused_producer_ids
        assert not result.tree.find_all(ExtensionNode)
        assert group.tile_counts == [2, 2]

    def test_transpose_of_placeholder_fuses(self):
        """Transposing an *input* is pointwise w.r.t. its consumer: the
        non-uniform access hits a placeholder (no dependence), so the
        whole chain fuses into one tile nest."""
        a = placeholder((8, 8), name="A")
        t = ops.transpose(a, (1, 0), name="T")
        c = ops.relu(t, name="C")
        kernel, deps, clustering, tree = scheduled(c)
        result = apply_post_tiling_fusion(tree, kernel, clustering, [4, 4])
        assert len(result.groups) == 1

    def test_transposed_read_of_computed_tensor_fuses(self):
        """A transposed read is functionally determined by the consumer
        instance, so the reverse strategy fuses it (per-tile producer
        footprint = the transposed rectangle, recompute factor ~ 1)."""
        a = placeholder((8, 8), name="A")
        r = ops.relu(a, name="R")
        c = ops.transpose(r, (1, 0), name="C")
        kernel, deps, clustering, tree = scheduled(c)
        result = apply_post_tiling_fusion(tree, kernel, clustering, [4, 4])
        assert len(result.groups) == 1
        assert result.groups[0].fused_producer_ids == ["S0"]

    def test_gather_producer_stays_separate(self):
        """A data-dependent gather of a *computed* tensor is a genuine
        barrier: the producer must stay a separate tile nest."""
        idx = placeholder((8,), dtype="int32", name="IDX")
        a = placeholder((8,), name="A")
        r = ops.relu(a, name="R")
        g = compute((8,), lambda i: r[_gather(idx, i)], name="G")
        kernel, deps, clustering, tree = scheduled(g)
        result = apply_post_tiling_fusion(tree, kernel, clustering, [4])
        assert len(result.groups) == 2
        assert result.groups[0].statements[0].tensor.name == "R"
        # The barrier group is a whole-space single tile nest.
        assert result.groups[0].total_tiles == 1

    def test_full_reduction_producer_stays_separate(self):
        """A rank-reducing full reduction feeding every tile would be
        recomputed per tile; the recompute guard keeps it separate."""
        x = placeholder((64, 64), name="X")
        k = reduce_axis((0, 64), "k")
        s = compute((64,), lambda i: te_sum(x[i, k], axis=k), name="S")
        out = compute(
            (64, 64), lambda i, j: x[i, j] - s[i] + 0.0, name="OUT"
        )
        kernel, deps, clustering, tree = scheduled(out)
        result = apply_post_tiling_fusion(tree, kernel, clustering, [8, 8])
        names = [g.statements[0].tensor.name for g in result.groups]
        assert len(result.groups) == 2
        assert "S" in names
