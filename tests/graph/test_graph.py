"""Tests for the graph engine, Table 1 subgraphs and network models."""

import numpy as np
import pytest

from repro.graph import (
    alexnet,
    bert,
    extract_subgraph,
    fuse_graph,
    mobilenet_v2,
    network,
    paper_subgraphs,
    partition,
    resnet50,
    ssd300,
)
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.runtime.reference import evaluate_tensors


class TestFuseGraph:
    def test_elementwise_chain_single_group(self):
        a = placeholder((8, 8), name="A")
        t = ops.relu(ops.scalar_add(a, 1.0, name="B"), name="C")
        groups = fuse_graph(t)
        assert len(groups) == 1
        assert len(groups[0]) == 2

    def test_two_convs_split(self):
        d = placeholder((1, 4, 12, 12), name="D")
        w1 = placeholder((4, 4, 3, 3), name="W1")
        w2 = placeholder((4, 4, 3, 3), name="W2")
        c1 = ops.conv2d(d, w1, padding=(1, 1), name="C1")
        r1 = ops.relu(c1, name="R1")
        c2 = ops.conv2d(r1, w2, padding=(1, 1), name="C2")
        r2 = ops.relu(c2, name="R2")
        groups = fuse_graph(r2)
        assert len(groups) == 2
        names = [[t.name for t in g] for g in groups]
        assert names[0] == ["C1", "R1"]
        assert names[1] == ["C2", "R2"]

    def test_multi_consumer_cuts_fusion(self):
        a = placeholder((8, 8), name="A")
        b = ops.scalar_add(a, 1.0, name="B")
        c = ops.relu(b, name="C")
        d = ops.abs_op(b, name="D")  # second consumer of B
        groups = fuse_graph([c, d])
        group_of = {t.name: i for i, g in enumerate(groups) for t in g}
        assert group_of["B"] != group_of["C"]
        assert group_of["B"] != group_of["D"]

    def test_group_size_cap(self):
        a = placeholder((8,), name="A")
        t = a
        for i in range(10):
            t = ops.scalar_add(t, 0.1, name=f"s{i}")
        groups = fuse_graph(t, max_group_ops=4)
        assert all(len(g) <= 4 for g in groups)

    def test_extract_semantics_preserved(self):
        a = placeholder((6, 6), name="A")
        t = ops.relu(ops.scalar_mul(a, 2.0, name="B"), name="C")
        groups = fuse_graph(t)
        spec = extract_subgraph(groups[0], "g0")
        x = np.random.default_rng(0).standard_normal((6, 6)).astype(np.float32)
        rerooted = spec.canonical_outputs[0]
        assert [t.name for t in spec.source_outputs] == ["C"]
        # The extracted subgraph has exactly one placeholder input.
        placeholders = [
            t2 for t2 in rerooted.ancestors() if t2.is_placeholder
        ]
        assert [p.name for p in placeholders] == spec.canonical_inputs == ["p0"]
        got = evaluate_tensors(rerooted, {"p0": x})[rerooted.name]
        np.testing.assert_allclose(got, np.maximum(x * 2, 0), rtol=1e-6)

    def test_signature_dedupes_identical_layers(self):
        a = placeholder((8, 8), name="A")
        r1 = ops.relu(a, name="R1")
        s1 = extract_subgraph([r1], "g0")
        b = placeholder((8, 8), name="B")
        r2 = ops.relu(b, name="R2")
        s2 = extract_subgraph([r2], "g1")
        assert s1.digest() == s2.digest()


class TestPaperSubgraphs:
    def test_table1_metadata(self):
        rows = paper_subgraphs()
        assert [r.n_ops for r in rows] == [6, 21, 15, 11, 9]
        assert [r.precision for r in rows] == ["FP16", "FP16", "FP32", "FP32", "FP16"]
        assert rows[0].input_shape == (16, 16, 512, 512)
        assert rows[2].input_shape == (30522, 1024)
        assert all(r.batch == 16 for r in rows)

    def test_subgraphs_build_and_count_ops(self):
        for row in paper_subgraphs():
            outs = row.build()
            computed = [
                t for o in outs for t in o.ancestors() if not t.is_placeholder
            ]
            # Dedup shared ancestors.
            unique = {id(t) for t in computed}
            assert len(unique) == row.n_ops, row.name

    def test_stencil_subgraphs_marked(self):
        rows = paper_subgraphs()
        from repro.graph.fusion import _is_heavy

        def has_stencil(row):
            outs = row.build()
            return any(
                t.op is not None and t.op.reduce_axes
                for o in outs
                for t in o.ancestors()
            )

        assert has_stencil(rows[0])  # subgraph1
        assert has_stencil(rows[4])  # subgraph5


class TestNetworks:
    """The one partition (``repro.graph.partition``) of each network."""

    @pytest.mark.parametrize(
        "name,instances,unique",
        [
            ("alexnet", 8, 8),
            ("alexnet_tiny", 6, 5),
            ("bert21128", 243, 12),
            ("bert30522", 243, 12),
            ("mobilenetv2", 53, 31),
            ("mobilenetv2_tiny", 8, 5),
            ("resnet50", 54, 26),
            ("ssd300", 29, 24),
        ],
    )
    def test_partition_sizes_are_pinned(self, name, instances, unique):
        """Instances and unique subgraphs of every network's partition,
        deduplicated by fingerprint digest: no compile needed."""
        part = partition(network(name))
        assert (len(part.specs), len(part.unique)) == (instances, unique)

    @pytest.mark.parametrize(
        "factory,min_unique",
        [
            (alexnet, 5),
            (resnet50, 12),
            (mobilenet_v2, 15),
            (ssd300, 12),
        ],
    )
    def test_network_enumeration(self, factory, min_unique):
        part = partition(factory())
        counts = part.multiplicities()
        assert len(part.unique) >= min_unique
        assert all(count >= 1 for count in counts.values())
        assert sum(counts.values()) == len(part.specs)
        # Every subgraph has at most one contraction.
        from repro.graph.fusion import _is_heavy

        for spec in part.unique.values():
            heavy = [
                t
                for o in spec.canonical_outputs
                for t in o.ancestors()
                if _is_heavy(t)
            ]
            assert len(set(id(t) for t in heavy)) <= 1

    def test_bert_layer_scaling(self):
        """BERT is built as its 24 layers: the counts come from the
        partition, not from scaling two built layers."""
        part = partition(bert(21128))
        assert len(part.specs) == 243
        assert len(part.unique) == 12
        # 24 ln1 + 23 ln2 instances of the layer-norm kernel (the last
        # ln2 fuses into vocab_proj).
        layer_norms = [
            digest
            for spec, digest in zip(part.specs, part.digests)
            if spec.source_outputs[-1].name.endswith(("_ln1", "_ln2"))
        ]
        assert len(layer_norms) == 47
        assert len(set(layer_norms)) == 1

    def test_bert_vocab_variants_differ(self):
        small = partition(bert(21128)).unique
        large = partition(bert(30522)).unique
        assert set(small) != set(large)

    def test_total_cycles_uses_backend(self):
        part = partition(alexnet())
        calls = []

        def backend(spec):
            calls.append(spec.name)
            return 100

        total = part.total_cycles(backend)
        assert total == 100 * len(part.specs)
        assert len(calls) == len(part.unique)
