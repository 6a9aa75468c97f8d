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

from .catalog import parse_spec, realize, spec_text
from .degrees import (
    character_degrees,
    extraspecial_degrees_closed_form,
    frobenius_degrees_closed_form,
)
from .smallgroups import enumerate_groups, table_to_realization
from .solver import g_report, kanold_scan, scan_theorem_a, scan_theorem_b

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "character_degrees",
    "enumerate_groups",
    "extraspecial_degrees_closed_form",
    "frobenius_degrees_closed_form",
    "g_report",
    "kanold_scan",
    "parse_spec",
    "realize",
    "scan_theorem_a",
    "scan_theorem_b",
    "spec_text",
    "table_to_realization",
]
