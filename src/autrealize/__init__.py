"""Constructive realization of finite groups as automorphism groups of
number fields, with machine-checkable certificates."""
