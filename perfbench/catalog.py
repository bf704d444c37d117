"""The fixed 10-app catalog and the seeded request data the benchmark sends.

Each entry names a :class:`~repro.service.CompileJob` (so the serving
tier can rebuild the same app in a worker process), the inputs that act
as weights (shared by identity across a batch), and an independent NumPy
reference computed from the request's own arrays.  The program only ever
receives arrays generated here from ``--seed``; the apps' bundled inputs
serve as shape, dtype and scale templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.apps import attention, conv1d, conv2d, conv_layer, downsample
from repro.apps import matmul, upsample
from repro.service import CompileJob
from repro.targets.bfloat16 import round_to_bfloat16

Request = Dict[str, np.ndarray]

#: requests per ``Server.run_many`` batch
BATCH = 4


@dataclass(frozen=True)
class AppSpec:
    """One catalog app, as the benchmark drives it."""

    name: str
    job: CompileJob
    #: inputs shared by identity across a batch (the serving idiom)
    weights: Tuple[str, ...]
    #: NumPy reference over one request's arrays
    reference: Callable[[Request], np.ndarray]
    #: absolute and relative tolerance against the reference
    tol: float
    #: inputs declared bfloat16 (generated bf16-representable)
    bf16: Tuple[str, ...] = ()


def _conv1d_ref(r: Request) -> np.ndarray:
    return conv1d.reference_conv1d(r["I"], r["K"])[:, : conv1d.FULL_WIDTH]


def _conv2d_ref(r: Request) -> np.ndarray:
    return conv2d.reference_conv2d(r["I2"], r["K2"])[:4, :512]


def _downsample_ref(r: Request) -> np.ndarray:
    return downsample.reference_downsample(r["Id"], r["Kd"])[:4, :256]


def _upsample_ref(r: Request) -> np.ndarray:
    full = upsample.reference_upsample(r["Iu"], r["Ku"])
    return full[:, : 2 * 256].reshape(2, 256, 2)


def _conv_layer_ref(r: Request) -> np.ndarray:
    out = conv_layer.reference_conv_layer(r["Icl"], r["Wcl"], r["BiasCl"])
    return out[:2, :64, :]


CATALOG: Tuple[AppSpec, ...] = (
    AppSpec(
        "conv1d_k32",
        CompileJob.make("conv1d", taps=32, rows=1),
        ("K",),
        _conv1d_ref,
        2e-2,
    ),
    AppSpec(
        "conv1d_k256",
        CompileJob.make("conv1d", taps=256, rows=1),
        ("K",),
        _conv1d_ref,
        2e-2,
    ),
    AppSpec(
        "matmul_n64",
        CompileJob.make("matmul", n=64),
        ("Bg",),
        lambda r: matmul.reference_matmul(r["Ag"], r["Bg"]),
        2e-2,
    ),
    AppSpec(
        "matmul_amx",
        CompileJob.make("matmul", variant=None, builder="build_amx"),
        ("Ba",),
        lambda r: matmul.reference_matmul(r["Aa"], r["Ba"]),
        2e-2,
        bf16=("Aa", "Ba"),
    ),
    AppSpec(
        "matmul_int8",
        CompileJob.make("matmul", variant=None, builder="build_int8"),
        ("Bq",),
        lambda r: matmul.reference_matmul_int8(r["Aq"], r["Bq"]),
        0.0,
    ),
    AppSpec(
        "attention",
        CompileJob.make("attention", length=128),
        ("Ktat", "Vat"),
        lambda r: attention.reference_attention(r["Qat"], r["Ktat"], r["Vat"]),
        2e-2,
    ),
    AppSpec(
        "conv2d",
        CompileJob.make("conv2d", taps=16, width=512, rows=4),
        ("K2",),
        _conv2d_ref,
        2e-2,
    ),
    AppSpec(
        "downsample",
        CompileJob.make("downsample", taps=16, width=256, rows=4),
        ("Kd",),
        _downsample_ref,
        2e-2,
    ),
    AppSpec(
        "upsample",
        CompileJob.make("upsample", width=256, rows=2),
        ("Ku",),
        _upsample_ref,
        2e-2,
    ),
    AppSpec(
        "conv_layer",
        CompileJob.make("conv_layer", rows=2),
        ("Wcl", "BiasCl"),
        _conv_layer_ref,
        2e-2,
    ),
)

BY_NAME = {spec.name: spec for spec in CATALOG}

#: the two tensor jobs the serving workload routes
SERVE_APPS = ("conv1d_k32", "matmul_n64")


def _like(rng: np.random.Generator, template: np.ndarray, bf16: bool):
    """A fresh array with ``template``'s shape, dtype and value scale."""
    if template.dtype.kind in "iu":
        low, high = int(template.min()), int(template.max())
        return rng.integers(
            low, high + 1, size=template.shape, dtype=template.dtype
        )
    scale = float(np.std(template.astype(np.float64))) or 1.0
    values = rng.standard_normal(template.shape) * scale
    if bf16:
        return round_to_bfloat16(values.astype(np.float32))
    return values.astype(template.dtype)


@dataclass
class AppData:
    """The seeded requests for one app."""

    #: one request, used by the plan path and the layer probes
    base: Request
    #: a batch whose weights are the same objects in every request
    shared: List[Request]
    #: a batch in which every request has its own weights and data
    fresh: List[Request]


def make_data(
    spec: AppSpec, template: Request, rng: np.random.Generator, batch: int
) -> AppData:
    """Generate one app's requests from ``rng``."""

    def request(weights: Request) -> Request:
        out = dict(weights)
        for name, array in template.items():
            if name not in spec.weights:
                out[name] = _like(rng, array, name in spec.bf16)
        return out

    def weights() -> Request:
        return {
            name: _like(rng, template[name], name in spec.bf16)
            for name in spec.weights
        }

    shared_weights = weights()
    base = request(shared_weights)
    shared = [base] + [request(shared_weights) for _ in range(batch - 1)]
    fresh = [request(weights()) for _ in range(batch)]
    return AppData(base=base, shared=shared, fresh=fresh)


def serve_pool(
    spec: AppSpec,
    base: Request,
    rng: np.random.Generator,
    size: int,
    shared: bool,
) -> List[Request]:
    """``size`` serving requests: sharing ``base``'s weights by identity
    when ``shared``, each with weights of its own otherwise."""
    pool = []
    for _ in range(size):
        request = {}
        for name, array in base.items():
            if shared and name in spec.weights:
                request[name] = array
            else:
                request[name] = _like(rng, array, name in spec.bf16)
        pool.append(request)
    return pool


def matches_reference(spec: AppSpec, request: Request, output) -> bool:
    """True when ``output`` is within the app's tolerance of NumPy."""
    expected = spec.reference(request)
    if expected.shape != output.shape:
        return False
    if spec.tol == 0.0:
        return bool(np.array_equal(expected, output))
    return bool(
        np.allclose(output, expected, rtol=spec.tol, atol=spec.tol)
    )
