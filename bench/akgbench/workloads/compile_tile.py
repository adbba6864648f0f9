"""compile_tile: cold compiles and tuner sweeps the backend owns.

``backend.tile_select`` / ``backend.tile_fit`` dominate and the
scheduler is under 10% (subgraph 2: tile_select 2.0 s + codegen 0.4 s
against 0.01 s of scheduling), so a scheduler optimisation must show no
change here and ROADMAP (b), incremental ``tile_fit`` across candidates,
must.  The cheap rows compile several times per sample.

A cold ``build`` of matmul_256 is not a row: 55% of it is
``schedule_kernel``, so it would put scheduler time into the workload
that predicts "no change" for scheduler work.  Its tuner sweep (one
front-end, eleven backend builds) is backend-bound and stays.
"""

from akgbench import compile_rows, rows
from akgbench.compile_rows import Row, check, layers, teardown  # noqa: F401

_OPS = {
    "add_relu_128x512": lambda: rows.add_relu(128, 512),
    "matmul_256": lambda: rows.matmul(256),
    "softmax_32x64": lambda: rows.softmax(32, 64),
}

ROWS = (
    Row(
        "add_relu_128x512",
        "build",
        _OPS["add_relu_128x512"],
        batch=10,
        twin=lambda: rows.add_relu(8, 16),
        replayable=True,
        single_op=True,
    ),
    # Executing fp16 softmax trips a known cast overflow (see README);
    # its twin is fp32.
    Row(
        "softmax_32x64",
        "build",
        _OPS["softmax_32x64"],
        batch=4,
        twin=lambda: rows.softmax(8, 16, "fp32"),
        single_op=True,
    ),
    Row("subgraph2", "build", rows.subgraph(2), twin=rows.elementwise_chain_twin),
    *(Row(f"tune_{name}", "tune", source) for name, source in _OPS.items()),
)

_TUNE_ROWS = tuple(r.name for r in ROWS if r.kind == "tune")


def setup(ctx):
    return compile_rows.setup(ctx, ROWS)


def measure(ctx, state):
    return compile_rows.measure(ctx, state, aux_rows=_TUNE_ROWS)
