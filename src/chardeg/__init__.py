"""Minimal group orders for prescribed irreducible character degrees.

The package answers one question and its instrumentation: what is the
smallest order of a finite group whose character table contains a given
degree n, for n a prime or the square of a prime?  It builds the competing
candidate groups explicitly, computes their full degree multisets from the
multiplication alone, and scans prime ranges for the exceptional cases.

Layering, lowest first:

    arith        primality, factoring, multiplicative orders
    ffield       small finite fields and matrices over them
    groups       generic group realizations from identity/multiply/generators
    catalog      the group-spec mini-language and its realizations
    degrees      conjugacy classes and character degrees (modular method)
    smallgroups  exhaustive enumeration of groups of small order
    solver       candidate comparison, range scans, minimality evidence
    cache        persistent degree-multiset store
    cli          command-line front end
"""

from .arith import (
    PrimePower,
    euler_phi,
    factor,
    is_cyclic_number,
    is_prime,
    kanold_holds,
    least_prime_1mod,
    least_prime_power_1mod,
    multiplicative_order,
    primes_up_to,
    psl2_order,
)
from .catalog import (
    Affine,
    Cyclic,
    Frob,
    GroupSpec,
    Named,
    NamedWitness,
    Prod,
    Psl2,
    Xsp,
    expected_order,
    named_witnesses,
    parse_spec,
    realize,
    spec_text,
    witnesses_for_degree,
)
from .degrees import (
    ClassData,
    DegreeMultiset,
    character_degrees,
    conjugacy_classes,
    extraspecial_degrees_closed_form,
    frobenius_degrees_closed_form,
    product_degrees,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    Error,
    InvalidParam,
    NotCoprime,
    NotPerfectSquare,
    OrderNotDividing,
    SearchExhausted,
    SelfCheckFailed,
    SpecSyntaxError,
    SumOfSquaresMismatch,
)
from .groups import (
    GroupRealization,
    direct_product,
    enumerate_elements,
)
from .smallgroups import CayleyTable, enumerate_groups, is_isomorphic, table_to_realization
from .solver import (
    Candidate,
    CandidateReport,
    KanoldRow,
    MinimalityStatus,
    ScanResult,
    ScanRow,
    g_prime,
    g_prime_squared,
    g_report,
    kanold_scan,
    lower_bound,
    scan_theorem_a,
    scan_theorem_b,
    verify_minimal,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # arith
    "PrimePower",
    "euler_phi",
    "factor",
    "is_cyclic_number",
    "is_prime",
    "kanold_holds",
    "least_prime_1mod",
    "least_prime_power_1mod",
    "multiplicative_order",
    "primes_up_to",
    "psl2_order",
    # catalog
    "Affine",
    "Cyclic",
    "Frob",
    "GroupSpec",
    "Named",
    "NamedWitness",
    "Prod",
    "Psl2",
    "Xsp",
    "expected_order",
    "named_witnesses",
    "parse_spec",
    "realize",
    "spec_text",
    "witnesses_for_degree",
    # degrees
    "ClassData",
    "DegreeMultiset",
    "character_degrees",
    "conjugacy_classes",
    "extraspecial_degrees_closed_form",
    "frobenius_degrees_closed_form",
    "product_degrees",
    # errors
    "BudgetExceeded",
    "CapExceeded",
    "Error",
    "InvalidParam",
    "NotCoprime",
    "NotPerfectSquare",
    "OrderNotDividing",
    "SearchExhausted",
    "SelfCheckFailed",
    "SpecSyntaxError",
    "SumOfSquaresMismatch",
    # groups
    "GroupRealization",
    "direct_product",
    "enumerate_elements",
    # smallgroups
    "CayleyTable",
    "enumerate_groups",
    "is_isomorphic",
    "table_to_realization",
    # solver
    "Candidate",
    "CandidateReport",
    "KanoldRow",
    "MinimalityStatus",
    "ScanResult",
    "ScanRow",
    "g_prime",
    "g_prime_squared",
    "g_report",
    "kanold_scan",
    "lower_bound",
    "scan_theorem_a",
    "scan_theorem_b",
    "verify_minimal",
    "verify_witness",
]
