"""The tile-unit descriptor table: AMX, WMMA and DP4A, each defined once.

HARDBOILED selects three kinds of tile instruction.  They differ only in
data — legal geometries, operand precision, the B-operand layout, the
tile-register limits and the intrinsic names — so each unit is one frozen
:class:`TileUnit`, and every evaluator reads the table instead of
carrying its own copy of the semantics:

* the interpreter registers one handler per *role* for every unit
  (:mod:`repro.runtime.interpreter`);
* the scalar and batch-axis emitters inject one helper per role, bound
  to a unit with :func:`functools.partial`, and derive their intrinsic
  tables from the roles (:mod:`repro.runtime.codegen`);
* the interpreter bumps each unit's MAC counter, which the roofline
  prices (:mod:`repro.perfmodel.roofline`).

The units:

* **AMX** (Intel Advanced Matrix Extensions).  ``tile_matmul`` is
  TDPBF16PS: ``C[16,16] f32 += A[16,32] bf16 . B[32,16] bf16`` with B
  in the *VNNI* layout (pairs of logical rows interleaved).  Tile
  registers hold at most 16 rows x 64 bytes.  An AMX tile reaches
  memory only through ``tile_store``, so it has no ``*2Mem`` read.
* **WMMA** (Nvidia Tensor Cores, fp16).  ``wmma.mma.sync`` computes
  ``C + A @ B`` on fp16 fragments with fp32 accumulation, for the
  m16n16k16, m32n8k16 and m8n32k16 geometries.  A fragment is the whole
  warp-collective tile here; the tile extractor still wraps WMMA
  statements in a ``WARP_SIZE``-lane loop that runs once per warp.
* **DP4A** (int8 dot product: AVX512-VNNI/AMX-INT8, DP4A/IMMA).
  ``dp4a_matmul`` computes ``C[16,16] i32 += A[16,64] i8 . B[64,16] i8``
  with B in the *VNNI-4* layout; products wrap in int32 like the
  hardware.  Accumulators live in vector registers, so reading one
  pointwise (``DP4A2Mem``) is legal.

Intrinsic signatures, by role:

* fill: ``(rows, cols)``, WMMA's ``(rows, cols, value)``
* load: ``(buffer, base, row_stride, rows, cols)``
* mma: ``(C, A, B, m, n, k)`` with B in the unit's packed layout
* store: ``(buffer, base, row_stride, rows, cols, tile)``
* to_mem: ``(tile)``, an identity in simulation

Tiles are flattened row-major NumPy arrays.  Every numeric method here
is rank-polymorphic: a value may carry leading batch axes, and each
batch slice is bit-identical to the call on that slice alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, Optional, Tuple

import numpy as np

from ..ir.types import TypeCode
from .bfloat16 import round_to_bfloat16

#: lanes of the warp that executes one WMMA operation
WARP_SIZE = 32

#: roles whose intrinsics read no memory that a tile op writes
PURE_ROLES = frozenset({"fill", "load", "mma", "to_mem"})


class AMXError(RuntimeError):
    pass


class WMMAError(RuntimeError):
    pass


class DP4AError(RuntimeError):
    pass


def kway_interleave(tile: np.ndarray, k: int, error=ValueError) -> np.ndarray:
    """Interleave groups of ``k`` rows: (..., R, C) -> (..., R/k, k*C).

    ``out[..., p, k*j + t] == tile[..., k*p + t, j]`` — the VNNI layout
    for ``k = 2`` and VNNI-4 for ``k = 4``.  Always returns a fresh
    array.
    """
    rows, cols = tile.shape[-2:]
    if rows % k != 0:
        raise error(f"{k}-way interleave needs rows divisible by {k},"
                    f" got {rows}")
    lead = tile.shape[:-2]
    out = np.empty(lead + (rows // k, cols, k), dtype=tile.dtype)
    out[...] = tile.reshape(lead + (rows // k, k, cols)).swapaxes(-1, -2)
    return out.reshape(lead + (rows // k, cols * k))


def kway_deinterleave(packed: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`kway_interleave`: (..., R/k, k*C) -> (..., R, C)."""
    if k == 1:
        return packed
    groups, width = packed.shape[-2:]
    lead = packed.shape[:-2]
    out = np.empty(lead + (groups, k, width // k), dtype=packed.dtype)
    out[...] = packed.reshape(lead + (groups, width // k, k)).swapaxes(
        -1, -2
    )
    return out.reshape(lead + (groups * k, width // k))


def _fp16(values) -> np.ndarray:
    """fp16 operand precision, multiplied in fp32."""
    return np.asarray(values, np.float32).astype(np.float16).astype(
        np.float32
    )


def _int8(values) -> np.ndarray:
    """int8 operand truncation (wraps mod 256), multiplied in int32."""
    return np.asarray(values).astype(np.int8).astype(np.int32)


def _tiles(value, rows: int, cols: int, dtype=None) -> np.ndarray:
    """Flat ``[rows*cols]`` or ``[B, rows*cols]`` tiles as C-contiguous
    ``[rows, cols]`` or ``[B, rows, cols]``.

    Contiguity keeps ``np.matmul``'s summation order independent of how
    the operand was gathered, so batch rows match the scalar call.
    """
    v = np.ascontiguousarray(value, dtype)
    return v.reshape(rows, cols) if v.ndim == 1 else v.reshape(-1, rows, cols)


@dataclass(frozen=True)
class TileUnit:
    """One tile unit: its legal geometries, numerics and intrinsic names.

    ``name`` is also the descriptor's global name in this module, which
    is how a descriptor pickles: by reference, so a kernel persisted
    with helpers bound to it re-hydrates onto the same object.
    """

    name: str
    #: raised for illegal geometries, tile shapes and addresses
    error: type
    #: legal ``(m, n, k)`` of the mma role
    shapes: FrozenSet[Tuple[int, int, int]]
    #: accumulator dtype; every tile value of the unit travels in it
    acc_dtype: np.dtype
    #: rounds an operand to the unit's operand precision (bf16, fp16 or
    #: int8), returned in the dtype the MAC multiplies in
    quantize: Callable[[np.ndarray], np.ndarray]
    #: B-operand row interleave (1 = row-major B)
    pack: int
    #: tile-register limits; None where fragments have no such file
    max_rows: Optional[int]
    max_row_bytes: Optional[int]
    #: stores into a bfloat16 buffer round to bf16
    store_bf16: bool
    #: the :class:`~repro.runtime.counters.Counters` field mma bumps
    counter: str
    # -- intrinsic names, by role ------------------------------------------
    fill: str
    loads: Tuple[str, ...]
    mma: str
    store: str
    to_mem: Optional[str]

    def __reduce__(self):
        return self.name

    def intrinsics(self) -> Iterator[Tuple[str, str]]:
        """``(intrinsic name, role)`` for every intrinsic of the unit."""
        yield self.fill, "fill"
        for name in self.loads:
            yield name, "load"
        yield self.mma, "mma"
        yield self.store, "store"
        if self.to_mem is not None:
            yield self.to_mem, "to_mem"

    # -- checks --------------------------------------------------------------

    def check_shape(self, m: int, n: int, k: int) -> None:
        """The mma geometry check both backends apply."""
        if (m, n, k) not in self.shapes:
            legal = ", ".join(
                f"m{a}n{b}k{c}" for a, b, c in sorted(self.shapes)
            )
            raise self.error(
                f"{self.mma} supports {legal}, got m{m}n{n}k{k}"
            )

    def check_tile(self, rows: int, cols: int, elem_bytes: int) -> None:
        """The tile-register limit, for loads, stores and fills."""
        if self.max_rows is not None and rows > self.max_rows:
            raise self.error(f"{self.name} tile rows {rows} > {self.max_rows}")
        if (
            self.max_row_bytes is not None
            and cols * elem_bytes > self.max_row_bytes
        ):
            raise self.error(
                f"{self.name} tile row of {cols} x {elem_bytes}B"
                f" exceeds {self.max_row_bytes} bytes"
            )

    # -- numerics ------------------------------------------------------------

    def full(self, rows: int, cols: int, value=None) -> np.ndarray:
        """A ``rows*cols`` tile of ``value`` (zeros without one); a ``[B]``
        value fills B rows."""
        if value is None:
            return np.zeros(rows * cols, dtype=self.acc_dtype)
        if isinstance(value, np.ndarray) and value.ndim:
            column = value.astype(self.acc_dtype, copy=False)[:, None]
            return np.full(
                (column.shape[0], rows * cols), column, dtype=self.acc_dtype
            )
        return np.full(rows * cols, value, dtype=self.acc_dtype)

    def mac(self, c, a, b, m: int, n: int, k: int) -> np.ndarray:
        """The mma role: ``C + A @ unpack(B)`` on flat tiles.

        Operands are quantized to the unit's precision; the products
        accumulate in :attr:`acc_dtype`.  Shared and batched operands
        broadcast the way ``np.matmul`` does.
        """
        p = self.pack
        a = self.quantize(_tiles(a, m, k))
        b = kway_deinterleave(self.quantize(_tiles(b, k // p, p * n)), p)
        out = _tiles(c, m, n, self.acc_dtype) + a @ b
        return out.ravel() if out.ndim == 2 else out.reshape(len(out), -1)

    def store_values(self, tile, buf) -> np.ndarray:
        """A tile converted to what a store writes into ``buf``."""
        values = np.asarray(tile, dtype=buf.data.dtype)
        if self.store_bf16 and buf.dtype.code is TypeCode.BFLOAT:
            values = round_to_bfloat16(values)
        return values

    def pack_b(self, b: np.ndarray) -> np.ndarray:
        """A row-major ``(..., K, N)`` B operand in the unit's layout."""
        return kway_interleave(b, self.pack, self.error)


AMX = TileUnit(
    name="AMX",
    error=AMXError,
    shapes=frozenset({(16, 16, 32)}),
    acc_dtype=np.dtype(np.float32),
    quantize=round_to_bfloat16,
    pack=2,
    max_rows=16,
    max_row_bytes=64,
    store_bf16=True,
    counter="tensor_macs",
    fill="tile_zero",
    loads=("tile_load",),
    mma="tile_matmul",
    store="tile_store",
    to_mem=None,
)

WMMA = TileUnit(
    name="WMMA",
    error=WMMAError,
    shapes=frozenset({(16, 16, 16), (32, 8, 16), (8, 32, 16)}),
    acc_dtype=np.dtype(np.float32),
    quantize=_fp16,
    pack=1,
    max_rows=None,
    max_row_bytes=None,
    store_bf16=True,
    counter="tensor_macs",
    fill="wmma.fill.sync",
    loads=("wmma.load.a.sync", "wmma.load.b.sync"),
    mma="wmma.mma.sync",
    store="wmma.store.d.sync",
    to_mem="WMMA2Mem",
)

DP4A = TileUnit(
    name="DP4A",
    error=DP4AError,
    shapes=frozenset({(16, 16, 64)}),
    acc_dtype=np.dtype(np.int32),
    quantize=_int8,
    pack=4,
    max_rows=16,
    max_row_bytes=64,
    store_bf16=False,
    counter="int8_macs",
    fill="dp4a_zero",
    loads=("dp4a_load",),
    mma="dp4a_matmul",
    store="dp4a_store",
    to_mem="DP4A2Mem",
)

TILE_UNITS = (AMX, WMMA, DP4A)

#: intrinsic name -> (unit, role), for every intrinsic of every unit
TILE_INTRINSICS: Dict[str, Tuple[TileUnit, str]] = {
    name: (unit, role)
    for unit in TILE_UNITS
    for name, role in unit.intrinsics()
}
