"""Constructive realization of finite groups as automorphism groups of
number fields, with machine-checkable certificates."""

from .errors import (
    AutRealizeError,
    BudgetExhaustedError,
    CapExceededError,
    SpecParseError,
    VerificationError,
)
from .exact import BiPoly, UniPoly
from .factor import factor_over_Q, is_irreducible_Q, squarefree_part
from .family import FAMILY, bad_set, certify_s3, cubic
from .numfield import (
    NfElement,
    NumberField,
    SplittingField,
    factor_over_nf,
    fixed_field,
    minpoly,
    roots_in_field,
    splitting_field,
)
from .perm import AbstractGroup, PermGroup, Permutation, are_isomorphic
from .pipeline import RealizationCertificate, build_state, run, specialize_and_verify

__version__ = "0.1.0"
