"""End-to-end network models (Sec. 6.3 workloads).

Each model builds the full forward te DAG at batch 16, matching the
paper's setup; :func:`repro.graph.pipeline.partition` fuses it into
subgraphs and deduplicates them by fingerprint digest, and Fig. 13 sums
per-subgraph simulated cycles weighted by multiplicity.  The paper
reports a training epoch; forward cycles preserve the
compiler-vs-compiler ratios the figures compare (every path pays the
same backward-shaped work), which is the documented substitution.

BERT comes in the paper's two vocabulary variants (21,128 and 30,522)
and is built whole, all 24 encoder layers: every count comes from the
partition, none from scaling.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.ir import ops
from repro.ir.tensor import Tensor, placeholder

BATCH = 16


class NetworkModel:
    """A named network: its name and its DAG builder."""

    def __init__(self, name: str, builder: Callable[[], List[Tensor]]):
        self.name = name
        self.builder = builder

    def __repr__(self) -> str:
        return f"NetworkModel({self.name})"


# -- building blocks --------------------------------------------------------------


def _conv_bn_relu(x, cin, cout, k, stride, pad, tag, relu=True):
    w = placeholder((cout, cin, k, k), dtype="fp16", name=f"{tag}_w")
    g = placeholder((cout,), dtype="fp16", name=f"{tag}_g")
    b = placeholder((cout,), dtype="fp16", name=f"{tag}_b")
    y = ops.conv2d(x, w, stride=(stride, stride), padding=(pad, pad), name=f"{tag}_conv")
    y = ops.scale_shift_channel(y, g, b, name=f"{tag}_bn")
    if relu:
        y = ops.relu(y, name=f"{tag}_relu")
    return y


def _bottleneck(x, cin, mid, cout, stride, tag):
    y = _conv_bn_relu(x, cin, mid, 1, 1, 0, f"{tag}_a")
    y = _conv_bn_relu(y, mid, mid, 3, stride, 1, f"{tag}_b")
    y = _conv_bn_relu(y, mid, cout, 1, 1, 0, f"{tag}_c", relu=False)
    if stride != 1 or cin != cout:
        shortcut = _conv_bn_relu(x, cin, cout, 1, stride, 0, f"{tag}_p", relu=False)
    else:
        shortcut = x
    y = ops.add(y, shortcut, name=f"{tag}_add")
    return ops.relu(y, name=f"{tag}_out")


def _build_resnet50() -> List[Tensor]:
    x = placeholder((BATCH, 3, 224, 224), dtype="fp16", name="image")
    y = _conv_bn_relu(x, 3, 64, 7, 2, 3, "c1")
    y = ops.max_pool2d(y, (3, 3), (2, 2), name="pool1")
    stages = [
        (64, 64, 256, 3, 1),
        (256, 128, 512, 4, 2),
        (512, 256, 1024, 6, 2),
        (1024, 512, 2048, 3, 2),
    ]
    for si, (cin, mid, cout, blocks, stride) in enumerate(stages):
        for bi in range(blocks):
            s = stride if bi == 0 else 1
            c_in = cin if bi == 0 else cout
            y = _bottleneck(y, c_in, mid, cout, s, f"s{si}b{bi}")
    y = ops.avg_pool2d(y, (7, 7), (7, 7), name="gap")
    flat = ops.transpose(y, (0, 2, 3, 1), name="nhwc")  # layout for the FC
    fc_in = placeholder((BATCH, 2048), dtype="fp16", name="gap_flat")
    w = placeholder((2048, 1000), dtype="fp16", name="fc_w")
    logits = ops.matmul(fc_in, w, name="fc")
    return [flat, logits]


def _inverted_residual(x, cin, cout, stride, expand, tag):
    mid = cin * expand
    y = _conv_bn_relu(x, cin, mid, 1, 1, 0, f"{tag}_e") if expand != 1 else x
    wdw = placeholder((mid, 3, 3), dtype="fp16", name=f"{tag}_dw_w")
    y = ops.depthwise_conv2d(
        y, wdw, stride=(stride, stride), padding=(1, 1), name=f"{tag}_dw"
    )
    y = ops.relu(y, name=f"{tag}_dwrelu")
    y = _conv_bn_relu(y, mid, cout, 1, 1, 0, f"{tag}_pr", relu=False)
    if stride == 1 and cin == cout:
        y = ops.add(y, x, name=f"{tag}_res")
    return y


def _build_mobilenet_v2() -> List[Tensor]:
    x = placeholder((BATCH, 3, 224, 224), dtype="fp16", name="image")
    y = _conv_bn_relu(x, 3, 32, 3, 2, 1, "m_c1")
    table = [
        # expand, cout, repeats, stride
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ]
    cin = 32
    for ti, (expand, cout, repeats, stride) in enumerate(table):
        for r in range(repeats):
            s = stride if r == 0 else 1
            y = _inverted_residual(y, cin, cout, s, expand, f"ir{ti}_{r}")
            cin = cout
    y = _conv_bn_relu(y, 320, 1280, 1, 1, 0, "m_head")
    y = ops.avg_pool2d(y, (7, 7), (7, 7), name="m_gap")
    fc_in = placeholder((BATCH, 1280), dtype="fp16", name="m_flat")
    w = placeholder((1280, 1000), dtype="fp16", name="m_fc_w")
    return [y, ops.matmul(fc_in, w, name="m_fc")]


def _build_alexnet() -> List[Tensor]:
    x = placeholder((BATCH, 3, 227, 227), dtype="fp16", name="image")
    y = _conv_bn_relu(x, 3, 96, 11, 4, 0, "a_c1")
    y = ops.max_pool2d(y, (3, 3), (2, 2), name="a_p1")
    y = _conv_bn_relu(y, 96, 256, 5, 1, 2, "a_c2")
    y = ops.max_pool2d(y, (3, 3), (2, 2), name="a_p2")
    y = _conv_bn_relu(y, 256, 384, 3, 1, 1, "a_c3")
    y = _conv_bn_relu(y, 384, 384, 3, 1, 1, "a_c4")
    y = _conv_bn_relu(y, 384, 256, 3, 1, 1, "a_c5")
    y = ops.max_pool2d(y, (3, 3), (2, 2), name="a_p5")
    flat = placeholder((BATCH, 9216), dtype="fp16", name="a_flat")
    outs: List[Tensor] = [y]
    t = flat
    for i, width in enumerate((4096, 4096, 1000)):
        w = placeholder((t.shape[1], width), dtype="fp16", name=f"a_fc{i}_w")
        t = ops.matmul(t, w, name=f"a_fc{i}")
        if i < 2:
            t = ops.relu(t, name=f"a_fc{i}_relu")
    outs.append(t)
    return outs


def _bert_layer(x, hidden, heads, seq, tag):
    """One transformer encoder layer on [BATCH*seq, hidden] activations."""
    wq = placeholder((hidden, hidden), dtype="fp16", name=f"{tag}_wq")
    wk = placeholder((hidden, hidden), dtype="fp16", name=f"{tag}_wk")
    wv = placeholder((hidden, hidden), dtype="fp16", name=f"{tag}_wv")
    q = ops.matmul(x, wq, name=f"{tag}_q")
    k = ops.matmul(x, wk, name=f"{tag}_k")
    v = ops.matmul(x, wv, name=f"{tag}_v")
    # Attention per (batch*heads): scores + softmax + context.
    head_dim = hidden // heads
    q3 = placeholder((BATCH * heads, seq, head_dim), dtype="fp16", name=f"{tag}_q3")
    k3 = placeholder((BATCH * heads, head_dim, seq), dtype="fp16", name=f"{tag}_k3")
    scores = ops.batched_matmul(q3, k3, name=f"{tag}_scores")
    scaled = ops.scalar_mul(scores, 1.0 / (head_dim ** 0.5), name=f"{tag}_scale")
    probs = ops.softmax_last_axis(scaled, name=f"{tag}_softmax")
    v3 = placeholder((BATCH * heads, seq, head_dim), dtype="fp16", name=f"{tag}_v3")
    ctx = ops.batched_matmul(probs, v3, name=f"{tag}_ctx")
    wo = placeholder((hidden, hidden), dtype="fp16", name=f"{tag}_wo")
    attn_out = ops.matmul(x, wo, name=f"{tag}_proj")
    g1 = placeholder((hidden,), dtype="fp16", name=f"{tag}_g1")
    b1 = placeholder((hidden,), dtype="fp16", name=f"{tag}_b1")
    y = ops.add(attn_out, x, name=f"{tag}_res1")
    y = ops.layer_norm(y, g1, b1, name=f"{tag}_ln1")
    w1 = placeholder((hidden, hidden * 4), dtype="fp16", name=f"{tag}_ffn_w1")
    h = ops.matmul(y, w1, name=f"{tag}_ffn1")
    h = ops.gelu(h, name=f"{tag}_gelu")
    w2 = placeholder((hidden * 4, hidden), dtype="fp16", name=f"{tag}_ffn_w2")
    h = ops.matmul(h, w2, name=f"{tag}_ffn2")
    g2 = placeholder((hidden,), dtype="fp16", name=f"{tag}_g2")
    b2 = placeholder((hidden,), dtype="fp16", name=f"{tag}_b2")
    z = ops.add(h, y, name=f"{tag}_res2")
    z = ops.layer_norm(z, g2, b2, name=f"{tag}_ln2")
    return z, ctx


def _build_bert(vocab: int) -> Callable[[], List[Tensor]]:
    hidden, heads, seq, layers = 1024, 16, 128, 24

    def build() -> List[Tensor]:
        tokens = BATCH * seq
        table = placeholder((vocab, hidden), dtype="fp16", name="emb_table")
        ids = placeholder((tokens,), dtype="int32", name="token_ids")
        x = ops.embedding_lookup(table, ids, name="embedding")
        outs: List[Tensor] = []
        for li in range(layers):
            x, ctx = _bert_layer(x, hidden, heads, seq, f"l{li}")
            outs.append(ctx)
        wv = placeholder((hidden, vocab), dtype="fp16", name="vocab_w")
        logits = ops.matmul(x, wv, name="vocab_proj")
        probs = ops.softmax_last_axis(logits, name="mlm_softmax")
        outs.append(probs)
        return outs

    return build


def _build_ssd300() -> List[Tensor]:
    """SSD300: VGG-16 backbone + extra layers + multibox heads.

    The detection heads contribute the "large number of divergent vector
    operators" the paper highlights.
    """
    x = placeholder((BATCH, 3, 300, 300), dtype="fp16", name="image")
    vgg = [
        (64, 2), (128, 2), (256, 3), (512, 3), (512, 3),
    ]
    y = x
    cin = 3
    feature_maps: List[Tensor] = []
    for vi, (cout, reps) in enumerate(vgg):
        for r in range(reps):
            y = _conv_bn_relu(y, cin, cout, 3, 1, 1, f"vgg{vi}_{r}")
            cin = cout
        if vi < 4:
            y = ops.max_pool2d(y, (2, 2), (2, 2), name=f"vgg{vi}_pool")
        feature_maps.append(y)
    # Extra feature layers.
    extras = [(256, 512, 2), (128, 256, 2)]
    for ei, (mid, cout, stride) in enumerate(extras):
        y = _conv_bn_relu(y, cin, mid, 1, 1, 0, f"ex{ei}_a")
        y = _conv_bn_relu(y, mid, cout, 3, stride, 1, f"ex{ei}_b")
        cin = cout
        feature_maps.append(y)
    # Multibox heads: per feature map, loc + conf convs then the divergent
    # vector post-processing (normalise, sigmoid/softmax-ish gating).
    outs: List[Tensor] = []
    for fi, fm in enumerate(feature_maps[-4:]):
        c = fm.shape[1]
        loc = _conv_bn_relu(fm, c, 16, 3, 1, 1, f"head{fi}_loc", relu=False)
        conf = _conv_bn_relu(fm, c, 84, 3, 1, 1, f"head{fi}_conf", relu=False)
        g = ops.sigmoid(loc, name=f"head{fi}_sig")
        g = ops.mul(g, loc, name=f"head{fi}_gate")
        g = ops.scalar_mul(g, 0.1, name=f"head{fi}_var")
        g = ops.tanh_op(g, name=f"head{fi}_tanh")
        g = ops.scalar_add(g, 1.0, name=f"head{fi}_shift")
        e = ops.exp(conf, name=f"head{fi}_exp")
        e = ops.scalar_mul(e, 0.5, name=f"head{fi}_esc")
        e = ops.abs_op(e, name=f"head{fi}_abs")
        outs.extend([g, e])
    return outs


def _build_alexnet_tiny() -> List[Tensor]:
    """AlexNet-shaped at toy scale, for executable network plans.

    Same subgraph structure as :func:`_build_alexnet` (conv/bn/relu
    stacks, pool cuts, FC head off a flat placeholder) but batch 2 and
    tiny channel counts, so the scalar-oracle replay that anchors the
    bit-identity check stays cheap.  ``t_c3``/``t_c4`` are deliberately
    fingerprint-identical: they prove compile-level dedup end to end.
    """
    x = placeholder((2, 3, 15, 15), dtype="fp16", name="image")
    y = _conv_bn_relu(x, 3, 6, 3, 2, 0, "t_c1")
    y = ops.max_pool2d(y, (3, 3), (2, 2), name="t_p1")
    y = _conv_bn_relu(y, 6, 8, 3, 1, 1, "t_c2")
    y = _conv_bn_relu(y, 8, 8, 3, 1, 1, "t_c3")
    y = _conv_bn_relu(y, 8, 8, 3, 1, 1, "t_c4")
    flat = placeholder((2, 72), dtype="fp16", name="t_flat")
    outs: List[Tensor] = [y]
    t = flat
    for i, width in enumerate((32, 10)):
        w = placeholder((t.shape[1], width), dtype="fp16", name=f"t_fc{i}_w")
        t = ops.matmul(t, w, name=f"t_fc{i}")
        if i == 0:
            t = ops.relu(t, name=f"t_fc{i}_relu")
    outs.append(t)
    return outs


def _build_mobilenet_v2_tiny() -> List[Tensor]:
    """MobileNet-v2-shaped at toy scale, for executable network plans.

    Two fingerprint-identical inverted residuals (stride 1, ``cin ==
    cout``) exercise both dedup and the residual fan-out: the block
    input feeds the expand conv *and* the residual add, so the arena
    planner must keep it live across the whole block.
    """
    x = placeholder((2, 3, 14, 14), dtype="fp16", name="image")
    y = _conv_bn_relu(x, 3, 4, 3, 2, 1, "t_head")
    y = _inverted_residual(y, 4, 4, 1, 2, "t_ir0")
    y = _inverted_residual(y, 4, 4, 1, 2, "t_ir1")
    y = _conv_bn_relu(y, 4, 8, 1, 1, 0, "t_tail", relu=False)
    return [y]


def resnet50() -> NetworkModel:
    """ResNet-50, batch 16."""
    return NetworkModel("resnet50", _build_resnet50)


def mobilenet_v2() -> NetworkModel:
    """MobileNet-v2, batch 16."""
    return NetworkModel("mobilenetv2", _build_mobilenet_v2)


def alexnet() -> NetworkModel:
    """AlexNet, batch 16."""
    return NetworkModel("alexnet", _build_alexnet)


def bert(vocab: int = 21128) -> NetworkModel:
    """BERT-large-like encoder; ``vocab`` selects the paper's variant."""
    return NetworkModel(f"bert{vocab}", _build_bert(vocab))


def ssd300() -> NetworkModel:
    """SSD with a VGG-16 backbone, batch 16."""
    return NetworkModel("ssd300", _build_ssd300)


def alexnet_tiny() -> NetworkModel:
    """Toy-scale AlexNet for executable-plan replay, batch 2."""
    return NetworkModel("alexnet_tiny", _build_alexnet_tiny)


def mobilenet_v2_tiny() -> NetworkModel:
    """Toy-scale MobileNet-v2 for executable-plan replay, batch 2."""
    return NetworkModel("mobilenetv2_tiny", _build_mobilenet_v2_tiny)


#: Name -> factory for every model; ``network(name)`` is the CLI lookup.
NETWORKS: Dict[str, Callable[[], NetworkModel]] = {
    "resnet50": resnet50,
    "mobilenetv2": mobilenet_v2,
    "alexnet": alexnet,
    "bert21128": lambda: bert(21128),
    "bert30522": lambda: bert(30522),
    "ssd300": ssd300,
    "alexnet_tiny": alexnet_tiny,
    "mobilenetv2_tiny": mobilenet_v2_tiny,
}


def network(name: str) -> NetworkModel:
    """Instantiate a registered model by name (KeyError lists choices)."""
    try:
        factory = NETWORKS[name]
    except KeyError:
        raise KeyError(
            f"unknown network {name!r}; choices: {', '.join(sorted(NETWORKS))}"
        ) from None
    return factory()
