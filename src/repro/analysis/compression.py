"""Error-bounded compression: the application layer's second reduction type.

Section 3 lists "compression rate" alongside the down-sample factor among
the data-reduction parameters the application-layer mechanism may select.
This module provides a real codec in the spirit of ISABELA/SZ-class
HPC compressors, built from stdlib + NumPy:

1. uniform quantization to a user-specified absolute-error bound
   (``tolerance`` as a fraction of the data range), then
2. DEFLATE (zlib) over the small-integer codes.

Smooth, low-entropy fields compress by orders of magnitude at tight
bounds; noisy high-entropy fields approach the quantization floor --
exactly the structure the entropy-driven policy exploits.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import PolicyError

__all__ = ["CompressedField", "compress_field", "decompress_field"]


@dataclass(frozen=True)
class CompressedField:
    """A compressed block with everything needed to reconstruct it."""

    payload: bytes
    shape: tuple[int, ...]
    minimum: float
    step: float  # quantization step in data units (0 for constant fields)
    tolerance: float

    @property
    def nbytes(self) -> int:
        """Size of the compressed payload."""
        return len(self.payload)


def compress_field(field: np.ndarray, tolerance: float = 1e-3) -> CompressedField:
    """Compress ``field`` with a point-wise error bound.

    ``tolerance`` is relative to the field's value range: every
    reconstructed sample differs from the original by at most
    ``tolerance * (max - min)``.
    """
    if not (0 < tolerance < 1):
        raise PolicyError(f"tolerance must be in (0, 1), got {tolerance}")
    field = np.ascontiguousarray(field, dtype=np.float64)
    if field.size == 0:
        raise PolicyError("cannot compress an empty field")
    if not np.isfinite(field).all():
        raise PolicyError("compression requires finite data")
    lo = float(field.min())
    hi = float(field.max())
    span = hi - lo
    if span == 0.0:
        payload = zlib.compress(b"", level=6)
        return CompressedField(payload, field.shape, lo, 0.0, tolerance)
    # Quantization step 2*eps guarantees |x - round(x)| <= eps.
    step = 2.0 * tolerance * span
    if step == 0.0:
        # Subnormal span: the step underflowed to exactly 0.0, so the
        # quantizer would divide by zero.  The span itself is below any
        # representable error bound -- store the field as constant.
        payload = zlib.compress(b"", level=6)
        return CompressedField(payload, field.shape, lo, 0.0, tolerance)
    codes = np.round((field - lo) / step)
    max_code = int(codes.max())
    dtype = np.uint16 if max_code < 2**16 else np.uint32
    raw = codes.astype(dtype).tobytes()
    payload = zlib.compress(raw, level=6)
    return CompressedField(payload, field.shape, lo, step, tolerance)


def decompress_field(compressed: CompressedField) -> np.ndarray:
    """Reconstruct the field (within the error bound)."""
    if compressed.step == 0.0:
        return np.full(compressed.shape, compressed.minimum)
    raw = zlib.decompress(compressed.payload)
    n = int(np.prod(compressed.shape))
    itemsize = len(raw) // n
    dtype = {2: np.uint16, 4: np.uint32}.get(itemsize)
    if dtype is None:
        raise PolicyError(f"corrupt payload: {len(raw)} bytes for {n} samples")
    codes = np.frombuffer(raw, dtype=dtype).reshape(compressed.shape)
    return compressed.minimum + codes.astype(np.float64) * compressed.step
