"""The codec as the benchmark sees it: stage spans and figures from containers.

The benchmark always calls the program's own ``SZOps.compress`` and
``SZOps.decompress``.  For a traced run, :func:`wrap_codec` spans the stage
functions those two call (QZ, LZ + BF, BF⁻¹, Lorenzo⁻¹, QZ⁻¹) until the
tracer unwraps them.  Bytes moved are computed from array sizes and dtypes,
not measured.
"""

from __future__ import annotations

import numpy as np

import repro.core.compressor as compressor_module
from repro import SZOps, SZOpsCompressed

from szbench.tracer import Tracer

#: Item size of the integer planes the stages pass on (bins, deltas).
INT_BYTES = np.dtype(np.int64).itemsize


def wrap_codec(tracer: Tracer) -> None:
    """Span each stage ``SZOps.compress``/``decompress`` calls, until unwrapped."""
    tracer.wrap(compressor_module, "quantize", "core.quantize")
    tracer.wrap(SZOps, "encode_quantized", "core.encode")
    tracer.wrap(SZOps, "decode_deltas", "core.decode")
    tracer.wrap(compressor_module, "lorenzo_inverse", "core.inverse")
    tracer.wrap(compressor_module, "dequantize", "core.dequantize")


def stored_bytes(c: SZOpsCompressed) -> int:
    return c.sign_bytes.nbytes + c.payload_bytes.nbytes + c.widths.nbytes + c.outliers.nbytes


def bytes_moved(c: SZOpsCompressed, decompressed: bool) -> int:
    """Bytes the stages read and wrote to make ``c`` (and decode it again).

    Compression reads the input, writes and reads the bins, and writes the
    planes; decompression reads the planes, writes and reads the deltas and
    the bins, and writes the output.
    """
    n = int(np.prod(c.shape))
    raw = n * c.dtype.itemsize
    moved = raw + 2 * INT_BYTES * n + stored_bytes(c)
    if decompressed:
        moved += stored_bytes(c) + 4 * INT_BYTES * n + raw
    return moved


def const_block_share(containers: list[SZOpsCompressed]) -> float:
    """Constant blocks over all blocks, counted exactly."""
    const = sum(c.n_constant_blocks for c in containers)
    total = sum(c.n_blocks for c in containers)
    return const / total if total else 0.0


def compression_ratio(raw: list[np.ndarray], blobs: list[bytes]) -> float:
    """Original bytes over serialized compressed bytes."""
    compressed = sum(len(b) for b in blobs)
    return sum(x.nbytes for x in raw) / compressed if compressed else 0.0


def max_abs_err(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(x.astype(np.float64) - y.astype(np.float64))))


def bound_violations(x: np.ndarray, y: np.ndarray, eps: float) -> int:
    """Elements of ``y`` farther from ``x`` than ``eps`` + half a ulp of ``y``'s dtype.

    This is the benchmark's own relaxation of the check "error ≤ eps".
    ``repro.core.quantize`` documents ``eps + ulp(|x| + eps) / 2`` with the
    ulp taken in float64, but decompression rounds that float64 value to
    the output dtype, which adds up to half an ulp of float32.  The check
    allows that rounding, so the known overshoot does not fail every run;
    ``max_err_over_eps`` reports it as measured, above 1.
    """
    slack = 0.5 * np.spacing((np.abs(x) + eps).astype(y.dtype)).astype(np.float64)
    err = np.abs(x.astype(np.float64) - y.astype(np.float64))
    return int(np.count_nonzero(err > eps + slack))
