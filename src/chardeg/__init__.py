"""Minimal group orders for prescribed irreducible character degrees.

The package answers one question and its instrumentation: what is the
smallest order of a finite group whose character table contains a given
degree n, for n a prime or the square of a prime?  It builds the competing
candidate groups explicitly, computes their full degree multisets from the
multiplication alone, and scans prime ranges for the exceptional cases.

Layering, lowest first:

    errors       exception types and the default caps
    arith        primality, factoring, multiplicative orders
    ffield       small finite fields and matrices over them
    groups       generic group realizations from identity/multiply/generators
    catalog      the group-spec mini-language and its realizations
    degrees      conjugacy classes and character degrees (modular method)
    smallgroups  exhaustive enumeration of groups of small order
    solver       candidate comparison, range scans, minimality evidence
    cache        persistent degree-multiset store
    cli          command-line front end

Importing the package loads none of these: each name below is imported
from its module on first use (PEP 562).  Above catalog, each layer imports
what it calls when it calls it, so `chardeg.cli` loads no numpy until a
command needs it and the scans never load degrees or smallgroups.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    **dict.fromkeys(["parse_spec", "realize", "spec_text"], "catalog"),
    **dict.fromkeys(["enumerate_groups", "table_to_realization"], "smallgroups"),
    **dict.fromkeys(["g_report", "kanold_scan", "scan_theorem_a", "scan_theorem_b"], "solver"),
    **dict.fromkeys(
        ["character_degrees", "extraspecial_degrees_closed_form", "frobenius_degrees_closed_form"],
        "degrees",
    ),
}

__all__ = ["__version__", *sorted(_HOMES)]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
