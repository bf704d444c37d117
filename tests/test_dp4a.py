"""The int8 dot-product (VNNI/DP4A) target: simulator, rules, apps.

Covers the third accelerator kind end to end: the functional simulator
(VNNI-4 pack/unpack, int8 wraparound semantics), instruction selection
on the quantized apps (dp4a intrinsics must appear, every MAC must land
on the int8 unit), bit-exact interpret-vs-compile parity, and the
roofline threading of the new ``int8_macs`` counter.
"""

import numpy as np
import pytest
from conftest import INT8_APP_IDS, INT8_APPS

from repro import frontend as hl
from repro.apps import conv_layer, matmul
from repro.eqsat import EGraph, run_phased
from repro.hardboiled import (
    axiomatic_rules,
    dp4a_rules,
    select_instructions,
    supporting_rules,
)
from repro.hardboiled.encode import Encoder
from repro.ir import (
    Broadcast,
    Int,
    IntImm,
    Load,
    Ramp,
    Variable,
    print_stmt,
)
from repro.lowering import lower
from repro.perfmodel import PerfModel
from repro.runtime import Counters
from repro.targets.device import A100, SPR_AMX
from repro.targets.tile_units import DP4A, DP4AError, kway_deinterleave

#: the dp4a_matmul macro-tile
[(DP_M, DP_N, DP_K)] = DP4A.shapes


class TestSimulator:
    def test_vnni4_roundtrip(self):
        rng = np.random.default_rng(0)
        b = rng.integers(-128, 128, size=(DP_K, DP_N), dtype=np.int8)
        packed = DP4A.pack_b(b)
        assert packed.shape == (DP_K // 4, 4 * DP_N)
        np.testing.assert_array_equal(kway_deinterleave(packed, 4), b)

    def test_vnni4_layout(self):
        # vnni[p, 4j + t] == b[4p + t, j]
        b = np.arange(DP_K * DP_N, dtype=np.int32).reshape(DP_K, DP_N)
        packed = DP4A.pack_b(b)
        for t in range(4):
            np.testing.assert_array_equal(packed[0, 4 * 7 + t], b[t, 7])

    def test_vnni4_pack_needs_divisible_rows(self):
        with pytest.raises(DP4AError):
            DP4A.pack_b(np.zeros((6, 4), dtype=np.int8))

    def test_dp4a_mac_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = rng.integers(-128, 128, size=(DP_M, DP_K), dtype=np.int8)
        b = rng.integers(-128, 128, size=(DP_K, DP_N), dtype=np.int8)
        c = rng.integers(-1000, 1000, size=(DP_M, DP_N), dtype=np.int32)
        packed = DP4A.pack_b(b)
        got = DP4A.mac(c.ravel(), a.ravel(), packed.ravel(), DP_M, DP_N, DP_K)
        got = got.reshape(DP_M, DP_N)
        ref = c + a.astype(np.int32) @ b.astype(np.int32)
        np.testing.assert_array_equal(got, ref)

    def test_inputs_truncate_to_int8(self):
        # values outside int8 wrap mod 256, like the hardware registers
        a = np.full((DP_M, DP_K), 300, dtype=np.int32)  # wraps to 44
        b = DP4A.pack_b(np.ones((DP_K, DP_N), dtype=np.int8))
        c = np.zeros((DP_M, DP_N), dtype=np.int32)
        got = DP4A.mac(c.ravel(), a.ravel(), b.ravel(), DP_M, DP_N, DP_K)
        got = got.reshape(DP_M, DP_N)
        np.testing.assert_array_equal(got, np.full((DP_M, DP_N), 44 * DP_K))

    def test_tile_shape_limits(self):
        DP4A.check_tile(16, 64, 1)  # a full int8 tile row is 64 bytes
        DP4A.check_tile(16, 16, 4)  # a full int32 accumulator row too
        with pytest.raises(DP4AError):
            DP4A.check_tile(17, 16, 1)
        with pytest.raises(DP4AError):
            DP4A.check_tile(16, 65, 1)


def _saturate(expr):
    eg = EGraph()
    root = Encoder(eg).expr(expr)
    ax, _ = axiomatic_rules()
    sup, _ = supporting_rules()
    dp, _ = dp4a_rules()
    run_phased(eg, list(ax) + list(dp), list(sup), iterations=8)
    return eg, root


class TestRules:
    def test_vnni4_layout_loads_without_swizzle(self):
        """A B operand already in the VNNI-4 layout (three-level nested
        ramp over group/row-group/column) maps to a direct dp4a_load."""
        mul_lanes = DP_M * DP_N * DP_K
        idx = Broadcast(
            Ramp(
                Ramp(
                    Ramp(Variable("b0"), IntImm(1), 4),
                    Broadcast(Variable("s2"), 4),
                    DP_K // 4,
                ),
                Broadcast(Variable("s1"), DP_K),
                DP_N,
            ),
            DP_M,
        )
        rhs = Load(Int(8, mul_lanes), "Bv", idx)
        eg, root = _saturate(rhs)
        facts = eg.facts("dp4a-B-tile")
        assert any(eg.find(root) == pair[0] for pair in facts)

    def test_standard_layout_swizzles_via_k4_interleave(self):
        mul_lanes = DP_M * DP_N * DP_K
        idx = Broadcast(
            Ramp(
                Ramp(Variable("b0"), Variable("s1"), DP_K),
                Broadcast(IntImm(1), DP_K),
                DP_N,
            ),
            DP_M,
        )
        rhs = Load(Int(8, mul_lanes), "Bs", idx)
        eg, root = _saturate(rhs)
        assert any(eg.find(root) == pair[0] for pair in eg.facts("dp4a-B-tile"))


class TestMatmulInt8Selection:
    def test_all_stores_map_to_dp4a(self):
        app = matmul.build_int8(tiles=1)
        lo = lower(app.output)
        tz, report = select_instructions(lo)
        assert report.all_mapped
        assert all(s.kind == "dp4a" for s in report.selections)
        # the dp4a intrinsic shows up in the SelectionReport itself
        assert any(
            "dp4a_matmul" in print_stmt(s.stmt) for s in report.selections
        )
        text = print_stmt(tz.stmt)
        assert "dp4a_zero" in text
        assert "dp4a_matmul" in text
        assert "dp4a_store" in text
        # the standard-layout B operand got the k=4 interleave swizzle
        assert "KWayInterleave(4" in text

    def test_swizzle_hoisted_outside_produce(self):
        app = matmul.build_int8(tiles=1)
        lo = lower(app.output)
        tz, _ = select_instructions(lo)
        text = print_stmt(tz.stmt)
        assert text.index("KWayInterleave") < text.index("produce")

    def test_every_mac_on_the_int8_unit(self):
        app = matmul.build_int8(tiles=2)
        counters = Counters()
        app.run(counters)
        n = matmul.TILE * 2
        assert counters.int8_macs == n * n * matmul.INT8_K
        assert counters.scalar_flops == 0
        assert counters.tensor_macs == 0
        assert counters.intrinsic_calls["dp4a_matmul"] == 4  # 2x2 tiles

    def test_vnni4_layout_maps_without_swizzle(self):
        # pre-packed B loads directly; the %4 / /4 degenerate-pattern
        # recovery axioms rebuild the three-level nested ramp
        app = matmul.build_int8(tiles=1, layout="vnni4")
        lo = lower(app.output)
        tz, report = select_instructions(lo)
        assert report.all_mapped
        text = print_stmt(tz.stmt)
        assert "dp4a_matmul" in text
        assert "KWayInterleave" not in text

    def test_vnni4_layout_bit_exact_both_backends(self):
        app = matmul.build_int8(tiles=1, layout="vnni4")
        ref = app.reference()
        counters = Counters()
        np.testing.assert_array_equal(app.run(counters), ref)
        np.testing.assert_array_equal(app.run(backend="compile"), ref)
        assert counters.int8_macs == 16 * 16 * matmul.INT8_K
        assert counters.scalar_flops == 0


class TestConvLayerInt8Selection:
    def test_selection_report_and_epilogue(self):
        app = conv_layer.build_int8(width=16, rows=1)
        report = app.report
        assert report is not None and report.all_mapped
        assert all(s.kind == "dp4a" for s in report.selections)
        text = print_stmt(app.compile().lowered.stmt)
        assert "dp4a_matmul" in text
        # the i32 bias+ReLU epilogue reads the accumulator pointwise
        # through the (legal, WMMA-style) outbound marker
        assert "DP4A2Mem" in text

    def test_macs_on_int8_unit_with_scalar_epilogue(self):
        app = conv_layer.build_int8(width=16, rows=1)
        out, counters = app.run_and_measure()
        assert counters.int8_macs > 0
        assert counters.tensor_macs == 0


class TestInt8BitExactness:
    """Both quantized apps, both backends, against the numpy reference
    — the app list is shared with the parity/batched suites."""

    @pytest.mark.parametrize("builder,params", INT8_APPS, ids=INT8_APP_IDS)
    def test_bit_exact_against_reference_both_backends(self, builder, params):
        app = builder(**params)
        ref = app.reference()
        np.testing.assert_array_equal(app.run(), ref)
        np.testing.assert_array_equal(app.run(backend="compile"), ref)


class TestRooflineThreading:
    def test_int8_macs_drive_tensor_time(self):
        counters = Counters(int8_macs=10**9)
        t = PerfModel(A100).estimate(counters)
        assert t.tensor_s > 0
        # int8 runs at 2x the fp16 MAC rate, so the same count of fp16
        # MACs must take twice as long
        t_fp16 = PerfModel(A100).estimate(Counters(tensor_macs=10**9))
        assert t_fp16.tensor_s == pytest.approx(2 * t.tensor_s)

    def test_int8_rate_fallback_doubles_fp16(self):
        from repro.targets.device import DeviceSpec

        spec = DeviceSpec(
            name="x",
            tensor_macs_per_s=1e12,
            cuda_macs_per_s=1e12,
            dram_bytes_per_s=1e12,
            l1_bytes_per_s=1e12,
        )
        assert spec.int8_rate() == 2e12
        assert SPR_AMX.int8_rate() == 4e12


class TestUnmappableInt8Store:
    def test_non_matmul_int8_store_reported(self):
        # a pointwise int8 computation scheduled into dp4a storage has
        # no lowering rule: selection must report it unmapped
        inp = hl.ImageParam(hl.Int(8), 1, name="inp_q")
        x = hl.Var("x")
        f = hl.Func("f_q")
        f[x] = hl.i32(inp[x]) * 2
        out_f = f.in_()
        out_f.bound(x, 0, 256).vectorize(x, 256)
        f.store_in(hl.MemoryType.DP4A_ACCUMULATOR).compute_at(out_f, "x")
        f.vectorize(x, 256)
        lo = lower(out_f)
        tz, report = select_instructions(lo, strict=False)
        assert not report.all_mapped
