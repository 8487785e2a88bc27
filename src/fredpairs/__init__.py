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
from .matrices import RankFactorization, RatMatrix, block, direct_sum, hstack, vstack
from .pairs import (
    InducedPair,
    InverseBundle,
    PairDefects,
    PairInstance,
    TheoremReport,
    build_extensions,
    build_v,
    composition_ranges,
    fredholm_data,
    induced_pair,
    pair_defects,
    regularity_witness,
    verify_theorem_3_4,
    verify_theorem_3_6,
)
from .subspaces import (
    ComplementWitness,
    QuotientStructure,
    Subspace,
    complement,
    image_basis,
    induced_map,
    kernel_basis,
    orthogonal_complement,
    push_image,
    quotient,
    quotient_dim,
)

__version__ = "0.1.0"
