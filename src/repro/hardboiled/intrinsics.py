"""Shuffle intrinsics HARDBOILED emits to re-layout operands.

These are the "application-specific" data movement helpers from the
paper: ``KWayInterleave`` produces the VNNI layout AMX expects, and
``ConvolutionShuffle`` materializes the (generalized) Toeplitz matrix
that turns convolution-like patterns into MatMul (paper §V-A/V-B and
Appendix B).  On real hardware they desugar into LLVM shuffle
instructions; here they are interpreter intrinsics that build the
corresponding tile values.
"""

from __future__ import annotations

import numpy as np

from ..ir import expr as E
from ..runtime.interpreter import Interpreter, memory_level, register_intrinsic
from ..targets import tile_units


class ShuffleError(RuntimeError):
    pass


def kway_interleave(tile: np.ndarray, k: int) -> np.ndarray:
    """The ``KWayInterleave`` layout: the tile units' VNNI interleave
    (:func:`repro.targets.tile_units.kway_interleave`)."""
    return tile_units.kway_interleave(tile, k, ShuffleError)


def toeplitz_from_kernel(
    kernel: np.ndarray, rows: int, cols: int, stride: int = 1
) -> np.ndarray:
    """The generalized Toeplitz coefficient matrix A_K (paper §V-A/V-B).

    ``A[c, j] = K[c - stride*j]`` when ``0 <= c - stride*j < len(K)``,
    else 0.  ``stride=1`` is plain convolution; ``stride=2`` is the
    downsampling matrix ``A_down`` of §V-B.
    """
    taps = kernel.shape[0]
    out = np.zeros((rows, cols), dtype=np.float32)
    for c in range(rows):
        for j in range(cols):
            t = c - stride * j
            if 0 <= t < taps:
                out[c, j] = np.float32(kernel[t])
    return out


def multiphase_matrix(
    kernel: np.ndarray, rows: int, cols: int, factor: int
) -> np.ndarray:
    """The upsampling coefficient matrix A_up of §V-B (see
    ``MultiphaseShuffle`` below for the index derivation)."""
    taps = kernel.shape[0]
    out = np.zeros((rows, cols), dtype=np.float32)
    for c in range(rows):
        for j in range(cols):
            t = factor * (c - j // factor) + (j % factor)
            if 0 <= t < taps:
                out[c, j] = np.float32(kernel[t])
    return out


def tile_expand(tile: np.ndarray, valid: int, cols: int) -> np.ndarray:
    """Pad each row of a flat ``[..., rows*valid]`` tile with zeros up to
    ``cols``: returns ``[..., rows, cols]``."""
    t = np.asarray(tile, np.float32)
    lead, rows = t.shape[:-1], t.shape[-1] // valid
    out = np.zeros(lead + (rows, cols), dtype=np.float32)
    out[..., :valid] = t.reshape(lead + (rows, valid))
    return out


def tile_compact(tile: np.ndarray, cols: int, valid: int) -> np.ndarray:
    """Drop the padding columns of a flat ``[..., rows*cols]`` tile down
    to ``valid``: returns ``[..., rows, valid]``."""
    t = np.asarray(tile, np.float32)
    lead, rows = t.shape[:-1], t.shape[-1] // cols
    return t.reshape(lead + (rows, cols))[..., :valid]


@register_intrinsic("KWayInterleave")
def _kway_interleave(interp: Interpreter, call: E.Call, env):
    """``KWayInterleave(k, rows, cols, tile)``."""
    k = interp.eval_int(call.args[0], env)
    rows = interp.eval_int(call.args[1], env)
    cols = interp.eval_int(call.args[2], env)
    tile = interp.eval_vector(call.args[3], env)
    matrix = np.asarray(tile, dtype=np.float32).reshape(rows, cols)
    return kway_interleave(matrix, k).ravel()


@register_intrinsic("ConvolutionShuffle")
def _convolution_shuffle(interp: Interpreter, call: E.Call, env):
    """``ConvolutionShuffle(buffer, base, rows, cols, taps, stride)``.

    Reads ``taps`` kernel coefficients starting at ``base`` and builds
    the ``rows x cols`` Toeplitz matrix (row-major).
    """
    name_expr = call.args[0]
    if not isinstance(name_expr, E.StringImm):
        raise ShuffleError(
            "ConvolutionShuffle expects a buffer name as first argument"
        )
    buf = interp.buffer(name_expr.value)
    base = interp.eval_int(call.args[1], env)
    rows = interp.eval_int(call.args[2], env)
    cols = interp.eval_int(call.args[3], env)
    taps = interp.eval_int(call.args[4], env)
    stride = interp.eval_int(call.args[5], env)
    idx = base + np.arange(taps)
    if np.any(idx < 0) or np.any(idx >= buf.size):
        raise ShuffleError(
            f"ConvolutionShuffle out of bounds on {buf.name!r}"
        )
    kernel = buf.gather(idx)
    interp.counters.add_load(
        memory_level(buf), idx.size * buf.dtype.bytes_per_lane()
    )
    return toeplitz_from_kernel(kernel, rows, cols, stride).ravel()


@register_intrinsic("TileExpand")
def _tile_expand(interp: Interpreter, call: E.Call, env):
    """``TileExpand(tile, valid_cols, cols)``: pad each row with zeros.

    Used for strided-convolution tiles where only the first
    ``valid_cols`` columns of each row hold real outputs.
    """
    tile = interp.eval_vector(call.args[0], env)
    valid = interp.eval_int(call.args[1], env)
    cols = interp.eval_int(call.args[2], env)
    return tile_expand(tile, valid, cols).ravel()


@register_intrinsic("TileCompact")
def _tile_compact(interp: Interpreter, call: E.Call, env):
    """``TileCompact(tile, cols, valid_cols)``: drop the padding columns."""
    tile = interp.eval_vector(call.args[0], env)
    cols = interp.eval_int(call.args[1], env)
    valid = interp.eval_int(call.args[2], env)
    return tile_compact(tile, cols, valid).ravel()


@register_intrinsic("MultiphaseShuffle")
def _multiphase_shuffle(interp: Interpreter, call: E.Call, env):
    """``MultiphaseShuffle(buffer, base, rows, cols, taps, factor)``.

    Builds the upsampling coefficient matrix A_up of §V-B: output column
    ``j`` covers output pixel ``j`` whose phase is ``j % factor`` and
    whose input offset advances by ``j // factor``.  Entry ``[c, j]``
    holds ``K[factor*(c - j//factor) + j%factor]`` when that tap index is
    in range — the multiphase filter-bank decomposition of the kernel.
    """
    name_expr = call.args[0]
    if not isinstance(name_expr, E.StringImm):
        raise ShuffleError(
            "MultiphaseShuffle expects a buffer name as first argument"
        )
    buf = interp.buffer(name_expr.value)
    base = interp.eval_int(call.args[1], env)
    rows = interp.eval_int(call.args[2], env)
    cols = interp.eval_int(call.args[3], env)
    taps = interp.eval_int(call.args[4], env)
    factor = interp.eval_int(call.args[5], env)
    idx = base + np.arange(taps)
    kernel = buf.gather(idx)
    interp.counters.add_load(
        memory_level(buf), idx.size * buf.dtype.bytes_per_lane()
    )
    return multiphase_matrix(kernel, rows, cols, factor).ravel()
