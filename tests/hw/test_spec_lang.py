"""Tests for the Fig. 8 memory-hierarchy specification language."""

import hashlib
import pickle

import pytest

from repro.core.diskcache import hw_fingerprint
from repro.hw.spec import ASCEND_910, HardwareSpec
from repro.hw.spec_lang import COMPUTE_TYPES, NpuSpecError, parse_npu_spec


EXAMPLE = """
# DaVinci-like manual specification
buf L1 (1048576)
buf UB (262144)
cube (L0A L0B -> L0C, 4096, 16)
vector (UB -> UB, 256, 32)
dataflow (GM -> L1, 128, 32)
dataflow (GM -> UB, 128, 32)
"""


class TestParsing:
    def test_full_example(self):
        spec = parse_npu_spec(EXAMPLE)
        assert len(spec.of("buf")) == 2
        assert len(spec.of(*COMPUTE_TYPES)) == 2
        assert len(spec.of("dataflow")) == 2
        cube = spec.of(*COMPUTE_TYPES)[0]
        assert cube.kind == "cube"
        assert cube.in_bufs == ("L0A", "L0B")
        assert cube.out_bufs == ("L0C",)
        assert cube.value == 4096
        assert cube.alignment == 16

    def test_roundtrip(self):
        spec = parse_npu_spec(EXAMPLE)
        again = parse_npu_spec(spec.render())
        assert len(again.statements) == len(spec.statements)
        assert again.statements == spec.statements

    def test_ascend_910_roundtrip(self):
        spec = parse_npu_spec(ASCEND_910)
        assert parse_npu_spec(spec.render()).statements == spec.statements

    @pytest.mark.parametrize(
        "bad",
        [
            "buf L1",                      # missing size
            "buf L1 (0)",                  # zero size
            "warp (UB -> UB, 1, 1)",       # unknown compute type
            "cube (L0A -> L0C, 0, 16)",    # zero throughput
            "dataflow GM -> L1, 1, 1",     # missing parens
            "nonsense line",
            "dataflow (GM -> L0A, 64, 32)",  # an edge no pipe serves
            "buf XYZ (5)",                 # a scope nothing allocates
            "const warp_size (32)",        # unknown constant
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(NpuSpecError):
            parse_npu_spec(bad)

    def test_errors_name_the_line(self):
        with pytest.raises(NpuSpecError, match=r"^line 3: no pipe serves .*GM -> L0A"):
            parse_npu_spec("buf UB (16)\n\ndataflow (GM -> L1 L0A, 64, 32)")

    def test_comments_ignored(self):
        spec = parse_npu_spec("# only a comment\n\nbuf UB (16)\n")
        assert len(spec.of("buf")) == 1


class TestHardwareOverlay:
    def test_buffer_capacity_overlay(self):
        spec = parse_npu_spec("buf UB (131072)")
        hw = spec.to_hardware_spec()
        assert hw.buffer_capacity["UB"] == 131072
        # Untouched buffers keep defaults.
        assert hw.buffer_capacity["L1"] == 1024 * 1024

    def test_dataflow_overlay(self):
        spec = parse_npu_spec("dataflow (GM -> L1, 64, 32)")
        hw = spec.to_hardware_spec()
        assert hw.bandwidth[("GM", "L1")] == 64.0

    def test_vector_throughput_overlay(self):
        spec = parse_npu_spec("vector (UB -> UB, 512, 32)")
        hw = spec.to_hardware_spec()
        assert hw.vector_bytes_per_cycle == 512
        assert hw.vector_lanes("fp16") == 256

    def test_cube_throughput_overlay(self):
        spec = parse_npu_spec("cube (L0A L0B -> L0C, 2048, 16)")
        hw = spec.to_hardware_spec()
        # Half the MAC throughput: two cycles per fractal block.
        assert hw.cube_cycles_per_block == 2

    def test_overlay_keeps_every_base_field(self):
        base = HardwareSpec()
        base.sync_cycles = 10
        base.cube_issue_latency = 99
        base.double_buffer_fraction = 0.25
        hw = parse_npu_spec("buf UB (131072)").to_hardware_spec(base)
        assert hw.sync_cycles == 10
        assert hw.cube_issue_latency == 99
        assert hw.double_buffer_fraction == 0.25
        assert hw.buffer_capacity["UB"] == 131072
        assert {k: v for k, v in vars(hw).items() if k != "buffer_capacity"} == {
            k: v for k, v in vars(base).items() if k != "buffer_capacity"
        }
        # The base is copied, not mutated.
        assert base.buffer_capacity["UB"] == 262144

    def test_dataflow_without_latency_keeps_the_base_latency(self):
        hw = parse_npu_spec("dataflow (GM -> UB, 64, 32)").to_hardware_spec()
        assert hw.dma_latency[("GM", "UB")] == HardwareSpec().dma_latency[("GM", "UB")]
        hw = parse_npu_spec("dataflow (GM -> UB, 64, 32) latency 5").to_hardware_spec()
        assert hw.dma_latency[("GM", "UB")] == 5


# ``hw_fingerprint(HardwareSpec())`` is part of every cache key and a
# pickled ``HardwareSpec`` is part of every entry: if either moves, cache
# directories written before stop serving hits.
ASCEND_910_FINGERPRINT = (
    "HardwareSpec(bandwidth={['GM','L1']:128.0,['GM','UB']:128.0,"
    "['L0C','UB']:256.0,['L1','L0A']:256.0,['L1','L0B']:256.0,"
    "['L1','UB']:256.0,['UB','GM']:128.0,['UB','L0C']:256.0,['UB','L1']:256.0},"
    "buffer_capacity={'GM':1152921504606846976,'L0A':65536,'L0B':65536,"
    "'L0C':262144,'L1':1048576,'UB':262144},cube_block=[16,16,16],"
    "cube_cycles_per_block=1,cube_issue_latency=16,dma_latency={['GM','L1']:32,"
    "['GM','UB']:32,['L0C','UB']:8,['L1','L0A']:8,['L1','L0B']:8,['L1','UB']:8,"
    "['UB','GM']:32,['UB','L0C']:8,['UB','L1']:8},double_buffer_fraction=0.5,"
    "img2col_bytes_per_cycle=256,noncontiguous_run_overhead=2,"
    "scalar_cycles_per_op=2,sync_cycles=6,vector_bytes_per_cycle=512,"
    "vector_issue_latency=8,vector_unaligned_penalty=2.0)"
)
ASCEND_910_PICKLE_SHA256 = "70d29e245b17ea5b5186afa289109f2f7bee0dc067eee68fd7318471eb41e121"


class TestAscend910:
    def test_fingerprint_is_pinned(self):
        assert len(ASCEND_910_FINGERPRINT) == 711
        assert hw_fingerprint(HardwareSpec()) == ASCEND_910_FINGERPRINT

    def test_pickle_is_pinned(self):
        digest = hashlib.sha256(pickle.dumps(HardwareSpec())).hexdigest()
        assert digest == ASCEND_910_PICKLE_SHA256

    def test_instances_do_not_share_tables(self):
        a, b = HardwareSpec(), HardwareSpec()
        a.buffer_capacity["UB"] //= 2
        a.bandwidth[("GM", "UB")] = 1.0
        a.dma_latency[("GM", "UB")] = 1
        assert hw_fingerprint(b) == ASCEND_910_FINGERPRINT
        assert hw_fingerprint(HardwareSpec()) == ASCEND_910_FINGERPRINT
