"""One record per instruction kind: the class is the only place a kind is
defined, and every reader of the stream -- simulator, dump, CCE emitter,
counters, race checker -- takes a new kind without an edit."""

import ast
from pathlib import Path

import pytest

import repro
from repro.core.compiler import build
from repro.core.errors import VerificationError
from repro.hw import isa
from repro.hw.isa import EDGES, DmaInstr, Instr, Loop, Pipe, Program, SetFlag, WaitFlag
from repro.hw.simulator import Simulator
from repro.hw.spec import HardwareSpec
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.verify.syncs import check_program_sync

SRC = Path(repro.__file__).parent


class VectorTranspose(Instr):
    """A kind the library does not have: a 16x16 block transpose in UB."""

    pipe = Pipe.V

    def __init__(self, blocks: int):
        self.blocks = blocks

    def accesses(self):
        return (("UB", False), ("UB", True))

    def cycles(self, spec):
        return spec.vector_issue_latency + 2 * self.blocks

    def cce(self):
        return f"vtranspose(dst, src, repeat={self.blocks});"

    def describe(self):
        return f"V: vtranspose x{self.blocks}"


def _load_then_transpose(synced):
    flags = [SetFlag(Pipe.MTE2, Pipe.V, 0), WaitFlag(Pipe.MTE2, Pipe.V, 0)]
    return [DmaInstr("GM", "UB", 512)] + (flags if synced else []) + [VectorTranspose(3)]


class TestANewKindNeedsNoConsumerEdit:
    def test_simulator_times_and_counts_it(self):
        spec = HardwareSpec()
        report = Simulator(spec).run(Program("p", [VectorTranspose(3)]))
        assert report.total_cycles == spec.vector_issue_latency + 6
        assert report.busy_cycles[Pipe.V] == spec.vector_issue_latency + 6
        assert report.instr_counts == {"VectorTranspose": 1}
        assert report.dma_bytes == 0 and report.sync_count == 0

    def test_extrapolated_loop_accounts_it(self):
        n = Simulator.UNROLL_LIMIT + 5  # steady-state extrapolation
        report = Simulator().run(Program("p", [Loop(n, [VectorTranspose(1)])]))
        assert report.instr_counts == {"VectorTranspose": n}
        assert report.busy_cycles[Pipe.V] == n * VectorTranspose(1).cycles(HardwareSpec())

    def test_dump_and_counts_read_it(self):
        program = Program("p", [Loop(4, [VectorTranspose(2)]), VectorTranspose(1)])
        assert program.dump().splitlines() == [
            "loop x4 { ",
            "  V: vtranspose x2",
            "}",
            "V: vtranspose x1",
        ]
        assert (program.static_count(), program.flat_count()) == (2, 5)

    def test_cce_renders_it(self):
        x = placeholder((16, 32), dtype="fp16", name="X")
        result = build(ops.relu(x, name="R"), "transpose_host")
        result.program.instructions.append(Loop(2, [VectorTranspose(3)]))
        lines = result.cce_code().splitlines()
        at = lines.index("  for (int i1 = 0; i1 < 2; ++i1) {")
        assert lines[at + 1 : at + 3] == ["    vtranspose(dst, src, repeat=3);", "  }"]

    def test_race_checker_orders_it(self):
        check_program_sync(_load_then_transpose(synced=True))
        with pytest.raises(VerificationError, match="unsynchronized UB access pair"):
            check_program_sync(_load_then_transpose(synced=False))


def _concrete_kinds():
    return {
        name
        for name, obj in vars(isa).items()
        if isinstance(obj, type) and issubclass(obj, Instr) and obj is not Instr
    }


def test_isinstance_against_a_kind_only_at_the_three_dispatch_sites():
    """The walker's ``Loop`` test, the simulator's ``Loop`` dispatch, and
    the TVM baseline's padding (an emit site) -- nothing else in ``src/``
    asks what kind an instruction is."""
    kinds = _concrete_kinds()
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if not (
                    isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "isinstance"
                    and len(call.args) == 2
                ):
                    continue
                names = {n.id for n in ast.walk(call.args[1]) if isinstance(n, ast.Name)}
                if names & kinds:
                    sites.append((path.relative_to(SRC).as_posix(), fn.name))
    assert sorted(sites) == [
        ("hw/isa.py", "walk"),
        ("hw/simulator.py", "_run_block"),
        ("tvmbaseline/compiler.py", "_vector_stage"),
    ]


def test_edge_table_covers_exactly_the_specified_dataflow_edges():
    spec = HardwareSpec()
    assert set(EDGES) == set(spec.bandwidth) == set(spec.dma_latency)
    for (src, dst), (pipe, intrinsic) in EDGES.items():
        dma = DmaInstr(src, dst, 64, label="t")
        assert dma.pipe is pipe
        assert dma.cce() == f"{intrinsic}(t, 64, 1);"
