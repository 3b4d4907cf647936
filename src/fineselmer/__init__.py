"""Certified upper bounds for fine Selmer lambda-invariants.

The package computes, for an elliptic curve over Q and an odd prime p,
every local and global quantity entering the lambda-invariant bound for
the fine Selmer group over the cyclotomic Z_p-extension, together with a
ledger of the hypotheses under which the bound is valid.

Layering, bottom to top:

    modular, polynomial, finitefield, factorization   exact arithmetic
    padic                                              p-adic numbers and roots
    elliptic                                           curves and torsion
    localdata                                          reduction types, S/S_0/S_p, g_v, delta_v
    galoisimage                                        mod-p image certification
    cyclotomic                                         Bernoulli numbers, regularity, tower ramification
    lambdabound                                        hypothesis ledger and bound assembly
    cli                                                command line front end

Everything is exact: integers are Python ints, rationals are
fractions.Fraction, p-adics carry explicit precision. No floats anywhere.
"""

__version__ = "0.1.0"

from .cyclotomic import (bernoulli_table, irregular_primes_below, is_regular,
                         kinf_ramification)
from .elliptic import WeierstrassModel, trace_of_frobenius
from .galoisimage import (ImageClassification, StableSubgroupWitness,
                          SurjectivityCertificate, classify_image,
                          find_stable_subgroups, surjectivity_certificate)
from .lambdabound import (GlobalInvariants, HypothesisEntry,
                          LambdaBoundReport, compute_lambda_bound)
from .localdata import (DeltaResult, PlaceSets, compute_place_sets, delta_v,
                        finite_level_place_count, g_v, reduction_over_K,
                        tate_reduction)

__all__ = [
    "__version__",
    "WeierstrassModel",
    "trace_of_frobenius",
    "tate_reduction",
    "reduction_over_K",
    "compute_place_sets",
    "PlaceSets",
    "g_v",
    "finite_level_place_count",
    "delta_v",
    "DeltaResult",
    "find_stable_subgroups",
    "StableSubgroupWitness",
    "surjectivity_certificate",
    "SurjectivityCertificate",
    "classify_image",
    "ImageClassification",
    "bernoulli_table",
    "is_regular",
    "irregular_primes_below",
    "kinf_ramification",
    "compute_lambda_bound",
    "LambdaBoundReport",
    "GlobalInvariants",
    "HypothesisEntry",
]
