"""Application-specific and lowering rules for int8 dot-product units.

The geometry is the dp4a macro-tile (see :mod:`repro.targets.tile_units`):
C[16,16] i32 += A[16,64] i8 . B[64,16] i8, with B consumed in the
VNNI-4 layout (groups of four rows interleaved).  The structure mirrors
:mod:`.rules_amx` one-for-one: application rules populate the
``dp4a-A-tile``/``dp4a-B-tile`` relations with expressions that place
each operand in a register block — reusing the ``KWayInterleave``
swizzle with ``k = 4`` (the paper's §V-A shuffle generalizes over the
interleave factor) when B arrives row-major — and the lowering rule
rewrites the matched int32-accumulating MatMul into ``dp4a_matmul``.

The one deliberate difference from AMX: a surviving outbound
``DP4A2Mem`` is *legal* (accumulators are ordinary vector registers),
so quantized epilogues can read tiles pointwise, as WMMA post-ops do.
"""

from __future__ import annotations

from ..eqsat import parse_program

M, N, K = 16, 16, 64
KG = 4  # the interleave factor: int8 values consumed per lane
C_LANES = M * N  # 256
MUL_LANES = M * N * K  # 16384
A_LANES = M * K  # 1024
B_LANES = K * N  # 1024

DP4A_PROGRAM = f"""
(relation dp4a-A-tile (Expr Expr))
(relation dp4a-B-tile (Expr Expr))

;; --- application-specific rules -------------------------------------

;; A operand in the standard layout: A(r, x) loaded as x-major blocks of
;; r-contiguous rows -> one dp4a_load
(rule ((= lhs (Load (Int8 {MUL_LANES}) A-name
          (Ramp (Broadcast (Ramp A-base 1 {K}) {N})
                (Broadcast A-stride {N * K}) {M}))))
      ((dp4a-A-tile lhs (Call (Int8 {A_LANES}) "dp4a_load"
          (Args A-name A-base A-stride {M} {K})))))

;; B operand in the standard (row-major) layout: HARDBOILED discovers
;; the required swizzle and materializes the VNNI-4 form via the k=4
;; KWayInterleave
(rule ((= rhs (Load (Int8 {MUL_LANES}) B-name
          (Broadcast (Ramp (Ramp B-base B-stride {K})
                           (Broadcast 1 {K}) {N}) {M}))))
      ((let load-B (Load (Int8 {B_LANES}) B-name
          (Ramp (Ramp B-base 1 {N}) (Broadcast B-stride {N}) {K})))
       (let shuffled (ExprVar (Call (Int8 {B_LANES}) "KWayInterleave"
          (Args {KG} {K} {N} load-B))))
       (dp4a-B-tile rhs (Call (Int8 {B_LANES}) "dp4a_load"
          (Args shuffled 0 {KG * N} {K // KG} {KG * N})))))

;; B operand already in the VNNI-4 layout: B_vnni4(r%4, y, r/4) loads
;; with a three-level nested ramp over (group, row-group, column) -> a
;; direct gather of the (K/4, 4N) tile, no swizzle.  The emitted index
;; re-uses the *bound* strides B-s1/B-s2 (in-tree IR carries strides as
;; symbolic {{name}}.stride.{{d}} variables), so the read is correct for
;; any layout the pattern matches, padded or dense
(rule ((= rhs (Load (Int8 {MUL_LANES}) B-name
          (Broadcast (Ramp (Ramp (Ramp B-base 1 {KG})
                                 (Broadcast B-s2 {KG}) {K // KG})
                           (Broadcast B-s1 {K}) {N}) {M}))))
      ((dp4a-B-tile rhs (Load (Int8 {B_LANES}) B-name
          (Ramp (Ramp (Ramp B-base 1 {KG}) (Broadcast B-s1 {KG}) {N})
                (Broadcast B-s2 {KG * N}) {K // KG})))))

;; broadcasts distribute over accumulator reads
(rewrite (Broadcast (DP4A2Mem e) l) (DP4A2Mem (Broadcast e l)))

;; --- lowering rules ---------------------------------------------------

;; quantized MatMul: C + sum(i32(A) * i32(B)) -> dp4a_matmul
(rule ((= e (Add (VectorReduceAdd {C_LANES}
                   (Mul (Cast (Int32 {MUL_LANES}) lhs)
                        (Cast (Int32 {MUL_LANES}) rhs)))
                 C))
       (dp4a-A-tile lhs dp-A)
       (dp4a-B-tile rhs dp-B))
      ((let new-e (Call (Int32 {C_LANES}) "dp4a_matmul"
           (Args (Mem2DP4A C) dp-A dp-B {M} {N} {K})))
       (union e (DP4A2Mem new-e))))

;; tile initialization: storing broadcast integer zero into a register
;; block (the accumulator is int32, so the literal is 0, not 0.0)
(rewrite (Mem2DP4A (Broadcast 0 {C_LANES}))
         (Call (Int32 {C_LANES}) "dp4a_zero" (Args {M} {N})))

;; tile store, dense destination
(rule ((= s (Store buffer (DP4A2Mem tile) (Ramp base 1 {C_LANES}))))
      ((union s (Evaluate (Call (Int32 1) "dp4a_store"
          (Args buffer base {N} {M} {N} tile))))))

;; tile store, strided (row-major into a larger matrix)
(rule ((= s (Store buffer (DP4A2Mem tile)
          (Ramp (Ramp base 1 {N}) (Broadcast stride {N}) {M}))))
      ((union s (Evaluate (Call (Int32 1) "dp4a_store"
          (Args buffer base stride {M} {N} tile))))))
"""

_cache = None


def dp4a_rules():
    global _cache
    if _cache is None:
        _cache = parse_program(DP4A_PROGRAM, relations={"has-lanes"})
    return _cache
