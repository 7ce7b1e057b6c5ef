"""Compressed multiplicities and interval-decomposable approximations of
persistence modules over equioriented commutative 2 x n grids, with exact
linear algebra over prime fields."""

import os
# One BLAS thread, as for the rest of the pipeline, unless numpy is loaded or the
# caller chose: threaded OpenBLAS products left a worker spinning for about 0.1 s.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .approximation import (
    SignedIntervalSum,
    dimvec_of_sum,
    interval_approximation,
    l1_norm,
    negative_part,
    positive_part,
    rank_of_sum,
    signed_rank_invariant,
)
from .compression import SsShape, classify_ss, compressed_multiplicity_function
from .ffmat import (
    GF2,
    FFMatrix,
    FieldSpec,
    ShapeError,
    block2x2,
    hstack,
    mat_inv,
    mat_mul,
    mat_rank,
    pullback_basis,
    random_invertible,
    random_matrix,
    vstack,
)
from .generators import (
    example_module,
    make_rng,
    random_interval_decomposable,
    random_module,
    staircase_family_module,
)
from .grid import (
    Grid,
    PersistenceModule,
    conjugate,
    dimension_vector,
    format_dimvec,
    path_map_table,
    rank_invariant,
    validate,
)
from .intervals import Interval, enumerate_intervals, interval_contains_rectangle
from .mobius import mobius_invert
from .pmod import (
    PmodError,
    format_interval_function,
    format_signed_sum,
    parse_pmod,
    print_pmod,
)

__version__ = "0.1.0"
