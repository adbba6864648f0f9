"""compile_sched: cold compiles whose CPU the scheduler owns.

``frontend.schedule`` + ``frontend.deps`` are 75-95% of these compiles
(ROADMAP hot layer (a)); the network row is hot layer (d), "cold network
= (a)+(b) x 5 unique subgraphs".  The backend does little, so a
tile-search optimisation must show no change here.
"""

from akgbench import compile_rows, rows
from akgbench.compile_rows import Row, check, layers, teardown  # noqa: F401

ROWS = (
    Row(
        "conv2d_16x32",
        "build",
        lambda: rows.conv2d(16, 32),
        twin=lambda: rows.conv2d(4, 8),
        replayable=True,
        single_op=True,
    ),
    Row(
        "subgraph5",
        "build",
        rows.subgraph(5),
        twin=rows.stencil_chain_twin,
        replayable=True,
    ),
    # As dear as the two kernel rows together, and the same scheduler
    # code five times over.
    Row("net_mobilenetv2_tiny", "network", "mobilenetv2_tiny", dear=True),
)


def setup(ctx):
    return compile_rows.setup(ctx, ROWS)


def measure(ctx, state):
    return compile_rows.measure(ctx, state, aux_rows=("net_mobilenetv2_tiny",))
