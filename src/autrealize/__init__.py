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
from .factor import Factorization, factor_over_Q, is_irreducible_Q, squarefree_part
from .family import build_member, certify_s3, bad_set
from .numfield import (
    NfElement,
    NumberField,
    SplittingField,
    automorphisms,
    factor_over_nf,
    fixed_field,
    minpoly,
    roots_in_field,
    splitting_field,
)
from .perm import AbstractGroup, PermGroup, Permutation, are_isomorphic
from .pipeline import RealizationCertificate, build_state, run, specialize_and_verify

__version__ = "0.1.0"
