"""Tests for subgraph identity (kernel dedup correctness): two fused
groups dedup exactly when their canonical DAGs fingerprint alike."""


from repro.graph.fusion import extract_subgraph, fuse_graph
from repro.ir import ops
from repro.ir.tensor import placeholder


def sig_of(out):
    groups = fuse_graph(out)
    return extract_subgraph(groups[-1], "g").digest()


class TestSignatureIdentity:
    def test_identical_layers_match(self):
        a = placeholder((8, 8), name="A")
        b = placeholder((8, 8), name="B_completely_different_name")
        assert sig_of(ops.relu(a, name="R1")) == sig_of(ops.relu(b, name="R2"))

    def test_different_shapes_differ(self):
        a = placeholder((8, 8), name="A")
        b = placeholder((8, 16), name="B")
        assert sig_of(ops.relu(a, name="R")) != sig_of(ops.relu(b, name="R"))

    def test_different_ops_differ(self):
        a = placeholder((8, 8), name="A")
        assert sig_of(ops.relu(a, name="R")) != sig_of(ops.abs_op(a, name="R"))

    def test_conv_kernel_size_differs(self):
        """Same output shape, different convolution window: the kernels
        compile differently and must not be deduplicated."""
        d = placeholder((1, 4, 8, 8), name="D")
        w3 = placeholder((4, 4, 3, 3), name="W3")
        w5 = placeholder((4, 4, 5, 5), name="W5")
        c3 = ops.conv2d(d, w3, padding=(1, 1), name="C")
        c5 = ops.conv2d(d, w5, padding=(2, 2), name="C")
        assert c3.shape == c5.shape
        assert sig_of(c3) != sig_of(c5)

    def test_weight_shape_differs(self):
        """Same output shape, different input-channel depth."""
        d8 = placeholder((1, 8, 8, 8), name="D8")
        d16 = placeholder((1, 16, 8, 8), name="D16")
        w8 = placeholder((4, 8, 1, 1), name="W8")
        w16 = placeholder((4, 16, 1, 1), name="W16")
        assert sig_of(ops.conv2d(d8, w8, name="C")) != sig_of(
            ops.conv2d(d16, w16, name="C")
        )

    def test_scalar_constant_differs(self):
        a = placeholder((8,), name="A")
        assert sig_of(ops.scalar_add(a, 1.0, name="S")) != sig_of(
            ops.scalar_add(a, 2.0, name="S")
        )

    def test_stride_differs(self):
        d = placeholder((1, 4, 16, 16), name="D")
        w = placeholder((4, 4, 3, 3), name="W")
        c1 = ops.conv2d(d, w, stride=(1, 1), padding=(1, 1), name="C")
        c2 = ops.conv2d(d, w, stride=(2, 2), padding=(1, 1), name="C")
        assert sig_of(c1) != sig_of(c2)
