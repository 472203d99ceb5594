"""Analysis services: the workflow's in-situ/in-transit kernels.

- :mod:`repro.analysis.downsample` -- spatial down-sampling operators and
  their memory-cost model (the application-layer adaptation's actuator).
- :mod:`repro.analysis.entropy` -- Shannon block entropy (Eq. 11) and
  entropy-driven per-block down-sampling factors.
- :mod:`repro.analysis.isosurface` -- 3-D isosurface extraction by
  marching tetrahedra (the table-free variant of marching cubes; see
  DESIGN.md for the substitution note) with watertight vertex welding.
- :mod:`repro.analysis.compression` -- error-bounded compression, the
  application layer's second reduction type.
- :mod:`repro.analysis.fidelity` -- quantitative fidelity metrics
  replacing the paper's rendered-image comparison (Fig. 6).
"""

from repro.analysis.compression import (
    CompressedField,
    compress_field,
    decompress_field,
)
from repro.analysis.downsample import (
    downsample_stride,
    downsample_memory_cost,
    reduced_nbytes,
    upsample_nearest,
)
from repro.analysis.entropy import (
    block_entropies,
    entropy_downsample_factors,
    shannon_entropy,
)
from repro.analysis.isosurface import extract_isosurface, surface_area
from repro.analysis.fidelity import reconstruction_error, isosurface_fidelity

__all__ = [
    "CompressedField",
    "block_entropies",
    "compress_field",
    "decompress_field",
    "downsample_memory_cost",
    "downsample_stride",
    "entropy_downsample_factors",
    "extract_isosurface",
    "isosurface_fidelity",
    "reconstruction_error",
    "reduced_nbytes",
    "shannon_entropy",
    "surface_area",
    "upsample_nearest",
]
