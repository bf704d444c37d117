"""GEMM (paper §III walkthrough and §IV robustness/performance).

Three flavours:

* :func:`build` — fp16 GEMM on Tensor Cores (m16n16k16 tiles), the
  Fig. 4 workload.
* :func:`build_amx` — bf16 GEMM on (simulated) Intel AMX, parametrized
  by the schedule variants of Intel's Optimization Reference Manual for
  the Table I robustness study.
* :func:`build_int8` — quantized int8 GEMM with int32 accumulation on
  the dp4a (VNNI/DP4A) dot-product target, the serving-style workload.
"""

from __future__ import annotations

import numpy as np

from .. import frontend as hl
from ..targets.bfloat16 import round_to_bfloat16
from .common import App, f16_random

TILE = 16
FULL_N = 1024


def reference_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.astype(np.float32) @ b.astype(np.float32)


def reference_matmul_int8(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int8 GEMM with int32 accumulation — exact, no rounding."""
    return a.astype(np.int32) @ b.astype(np.int32)


def build(
    variant: str, n: int = 128, seed: int = 4, full_n: int = FULL_N
) -> App:
    """fp16 GEMM ``C[x, y] = sum_r A[x, r] * B[r, y]`` on ``n^3``."""
    if n % TILE != 0:
        raise ValueError(f"n must be a multiple of {TILE}")
    A = hl.ImageParam(hl.Float(16), 2, name="Ag")
    B = hl.ImageParam(hl.Float(16), 2, name="Bg")
    x, y = hl.Var("x"), hl.Var("y")
    xi, yi, ri = hl.Var("xi"), hl.Var("yi"), hl.Var("ri")
    r = hl.RDom(0, n, name="rg")
    mm = hl.Func("mmg")
    mm[y, x] = 0.0
    mm[y, x] += hl.f32(A[r, x]) * hl.f32(B[y, r])
    out = mm.in_()
    out.bound(x, 0, n).bound(y, 0, n)
    out.split(x, x, xi, TILE).split(y, y, yi, TILE).reorder(
        yi, xi, y, x
    ).vectorize(yi).vectorize(xi).gpu_blocks(y, x)
    # realize one 16x16 accumulator tile per (x, y) tile pair: attach at
    # the inner tile loop
    mm.compute_at(out, "y")
    if variant == "tensor":
        mm.store_in(hl.MemoryType.WMMA_ACCUMULATOR)
    elif variant != "cuda":
        raise ValueError(f"unknown variant {variant!r}")
    mm.vectorize(y, TILE).vectorize(x, TILE)
    yiu, xiu = hl.Var("yiu"), hl.Var("xiu")
    mm.update().split(r, r, ri, TILE).split(y, y, yiu, TILE).split(
        x, x, xiu, TILE
    ).reorder(ri, yiu, xiu, r, y, x).atomic().vectorize(ri).vectorize(
        yiu
    ).vectorize(xiu)

    rng = np.random.default_rng(seed)
    a = f16_random(rng, (n, n)) / np.float16(4)
    b = f16_random(rng, (n, n)) / np.float16(4)
    inputs = {A: a, B: b}

    return App(
        name="matmul",
        variant=variant,
        output=out,
        inputs=inputs,
        reference=lambda: reference_matmul(a, b),
        scale_factor=(full_n / n) ** 3,
        kernels=1,
        description=f"fp16 GEMM, {full_n}^3 (interpreted at {n}^3)",
    )


def theoretical_macs(n: int = FULL_N) -> int:
    return n**3


def theoretical_io_bytes(n: int = FULL_N) -> int:
    return 2 * n * n * 2 + n * n * 4


# -- AMX variants for Table I ---------------------------------------------------


def build_amx(
    layout: str = "standard",
    loop_order: str = "xy",
    preload_a: bool = False,
    preload_b: bool = False,
    tiles: int = 2,
    seed: int = 5,
) -> App:
    """A bf16 AMX GEMM covering Intel-manual schedule variants (Table I).

    * ``layout`` — ``"standard"`` row-major B (HARDBOILED must inject the
      VNNI swizzle) or ``"vnni"`` pre-swizzled B.
    * ``loop_order`` — ``"xy"`` or ``"yx"`` tile loop nesting.
    * ``preload_a``/``preload_b`` — stage the operand through an
      intermediate Func (the manual's register-preload pattern).
    """
    if preload_b:
        tiles = 1  # a preloaded B occupies exactly one tile register
    n = TILE * tiles
    k = 32
    A = hl.ImageParam(hl.BFloat(16), 2, name="Aa")
    x, y = hl.Var("x"), hl.Var("y")
    xi, yi = hl.Var("xi"), hl.Var("yi")
    r = hl.RDom(0, k, name="ra")
    rng = np.random.default_rng(seed)
    a = round_to_bfloat16(
        rng.standard_normal((n, k)).astype(np.float32) / 4
    )
    b = round_to_bfloat16(
        rng.standard_normal((k, n)).astype(np.float32) / 4
    )

    def a_operand():
        if not preload_a:
            return A, A[r, x]
        stage = hl.Func("Astage")
        ax, ar = hl.Var("ax"), hl.Var("ar")
        stage[ar, ax] = A[ar, ax]
        stage.compute_root()
        return A, stage[r, x]

    mm = hl.Func("mma")
    if layout == "standard":
        B = hl.ImageParam(hl.BFloat(16), 2, name="Ba")
        b_input = b
        if preload_b:
            # preloading stages B into a tile register ahead of the
            # MatMul; once data sits in a tile no swizzle can be applied,
            # and a dense standard-layout copy cannot be distinguished
            # from a VNNI one — the ambiguity of Table I's x entry
            stage = hl.Func("Bstage")
            bj, br = hl.Var("bj"), hl.Var("br")
            stage[bj, br] = B[bj, br]
            stage.compute_root().store_in(hl.MemoryType.AMX_TILE)
            stage.vectorize(bj, TILE).vectorize(br, k)
            stage.bound(bj, 0, n).bound(br, 0, k)
            b_ref = stage[y, r]
        else:
            b_ref = B[y, r]
    elif layout == "vnni":
        B = hl.ImageParam(hl.BFloat(16), 3, name="Bv")
        from ..targets.tile_units import AMX

        b_input = AMX.pack_b(b).reshape(k // 2, n, 2)
        if preload_b:
            stage = hl.Func("Bvstage")
            bp, bj, bh = hl.Var("bp"), hl.Var("bj"), hl.Var("bh")
            stage[bp, bj, bh] = B[bp, bj, bh]
            stage.compute_root().store_in(hl.MemoryType.AMX_TILE)
            stage.vectorize(bp, 2).vectorize(bj, TILE).vectorize(bh, k // 2)
            stage.bound(bp, 0, 2).bound(bj, 0, n).bound(bh, 0, k // 2)
            b_ref = stage[r % 2, y, r / 2]
        else:
            b_ref = B[r % 2, y, r / 2]
    else:
        raise ValueError(f"unknown layout {layout!r}")

    _, a_ref = a_operand()
    mm[y, x] = 0.0
    mm[y, x] += hl.f32(a_ref) * hl.f32(b_ref)
    out = mm.in_()
    out.bound(x, 0, n).bound(y, 0, n)
    out.split(x, x, xi, TILE).split(y, y, yi, TILE)
    if loop_order == "xy":
        out.reorder(yi, xi, y, x)
        inner_tile_loop = "y"
    else:
        out.reorder(yi, xi, x, y)
        inner_tile_loop = "x"
    out.vectorize(yi).vectorize(xi)
    mm.store_in(hl.MemoryType.AMX_TILE).compute_at(out, inner_tile_loop)
    mm.vectorize(y, TILE).vectorize(x, TILE)
    mm.update().atomic().vectorize(r, k).vectorize(y, TILE).vectorize(
        x, TILE
    )

    inputs = {A: a, B: b_input}
    return App(
        name=f"amx_matmul_{layout}",
        variant="tensor",
        output=out,
        inputs=inputs,
        reference=lambda: reference_matmul(a, b),
        scale_factor=1.0,
        description=(
            f"AMX GEMM {n}x{k}x{n}, {layout} layout, order {loop_order},"
            f" preload_a={preload_a}, preload_b={preload_b}"
        ),
    )


# -- quantized int8 GEMM on the dp4a target -------------------------------------

INT8_K = 64  # the dp4a macro-tile reduction depth (4-way groups x 16)


def build_int8(
    tiles: int = 2,
    layout: str = "standard",
    seed: int = 11,
    full_n: int = FULL_N,
) -> App:
    """Quantized GEMM ``C_i32[x, y] = sum_r A_i8[x, r] * B_i8[r, y]``.

    With ``layout="standard"`` the B operand arrives row-major, so
    HARDBOILED must discover the VNNI-4 swizzle (``KWayInterleave``
    with ``k = 4``) to place it in a dp4a register block — the int8
    analogue of the AMX standard-layout schedule.  With
    ``layout="vnni4"`` B is pre-packed ``B_vnni4(r%4, y, r/4)`` and
    loads directly, no swizzle.  Accumulation is exact int32, so both
    backends and the numpy reference agree bit for bit.
    """
    n = TILE * tiles
    k = INT8_K
    A = hl.ImageParam(hl.Int(8), 2, name="Aq")
    x, y = hl.Var("x"), hl.Var("y")
    xi, yi = hl.Var("xi"), hl.Var("yi")
    r = hl.RDom(0, k, name="rq")

    rng = np.random.default_rng(seed)
    a = rng.integers(-128, 128, size=(n, k), dtype=np.int8)
    b = rng.integers(-128, 128, size=(k, n), dtype=np.int8)

    if layout == "standard":
        B = hl.ImageParam(hl.Int(8), 2, name="Bq")
        b_input = b
        b_ref = lambda: B[y, r]  # noqa: E731
    elif layout == "vnni4":
        from ..targets.tile_units import DP4A

        B = hl.ImageParam(hl.Int(8), 3, name="Bq4")
        b_input = DP4A.pack_b(b).reshape(k // 4, n, 4)
        b_ref = lambda: B[r % 4, y, r / 4]  # noqa: E731
    else:
        raise ValueError(f"unknown layout {layout!r}")

    mm = hl.Func("mmq")
    mm[y, x] = 0
    mm[y, x] += hl.i32(A[r, x]) * hl.i32(b_ref())
    out = mm.in_()
    out.bound(x, 0, n).bound(y, 0, n)
    out.split(x, x, xi, TILE).split(y, y, yi, TILE).reorder(
        yi, xi, y, x
    ).vectorize(yi).vectorize(xi)
    mm.store_in(hl.MemoryType.DP4A_ACCUMULATOR).compute_at(out, "y")
    mm.vectorize(y, TILE).vectorize(x, TILE)
    mm.update().atomic().vectorize(r, k).vectorize(y, TILE).vectorize(
        x, TILE
    )

    inputs = {A: a, B: b_input}
    return App(
        name="matmul_int8",
        variant="tensor",
        output=out,
        inputs=inputs,
        reference=lambda: reference_matmul_int8(a, b),
        scale_factor=full_n**3 / (n * n * k),
        kernels=1,
        description=(
            f"int8 GEMM {n}x{k}x{n} on dp4a, {layout} layout, i32"
            f" accumulation (extrapolated to {full_n}^3)"
        ),
    )
