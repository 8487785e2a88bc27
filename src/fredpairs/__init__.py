"""Exact verification of Fredholm pair and chain index identities over Q."""

from ._kernels import BACKEND as KERNEL_BACKEND
from .chains import (
    ChainDefects,
    ChainInstance,
    QuotientChain,
    chain_defects,
    fold_to_pair,
    quotient_chain,
    verify_remark_2_3,
    verify_theorem_4_2,
    verify_theorem_4_4,
)
from .errors import (
    DimensionError,
    FredpairsError,
    InputError,
    InvariantError,
    PreconditionError,
)
from .generators import GenConfig, SplitMix64, random_chain, random_matrix, random_pair
from .matrices import RatMatrix, block, direct_sum, hstack, vstack
from .pairs import (
    InducedPair,
    InverseBundle,
    PairDefects,
    PairInstance,
    TheoremReport,
    build_extensions,
    build_v,
    fredholm_data,
    induced_pair,
    pair_defects,
    verify_theorem_3_4,
    verify_theorem_3_6,
)
from .subspaces import (
    QuotientStructure,
    Subspace,
    image_basis,
    induced_map,
    kernel_basis,
    orthogonal_complement,
    quotient,
)

__version__ = "0.1.0"
