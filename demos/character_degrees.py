"""Compute character-degree multisets straight from group multiplication.

The engine needs nothing but identity/multiply/generators: it finds conjugacy
classes, builds class-multiplication matrices, splits their common
eigenvectors over a prime field chosen larger than the group, and reads
each irreducible degree off its central character.  Two families also have
textbook closed forms, so the demo checks the engine against them, then
runs a simple group where no closed form applies.
"""

from chardeg import (
    character_degrees,
    extraspecial_degrees_closed_form,
    frobenius_degrees_closed_form,
    parse_spec,
    realize,
)


def show(text: str):
    multiset = character_degrees(realize(parse_spec(text)))
    print(f"  {text:<18} order {multiset.group_order:<6} degrees {sorted(multiset.degrees)}")
    return multiset


def main():
    print("Frobenius groups (C_q)^m x| C_k:")
    for q, m, k in [(3, 1, 2), (7, 1, 6), (2, 3, 7), (11, 1, 5)]:
        got = show(f"frob:{q}^{m}:{k}")
        assert got == frobenius_degrees_closed_form(q, m, k)
    print("closed form: k linear characters, (q^m - 1)/k of degree k  [checked]")

    print("\nextraspecial p-groups of order p^(1+2n):")
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        got = show(f"xsp:{p}:{n}")
        assert got == extraspecial_degrees_closed_form(p, n)
    print("closed form: p^(2n) linear, p - 1 of degree p^n  [checked]")

    print("\nsimple groups PSL2(p), no closed form used:")
    for p in (5, 7, 11):
        multiset = show(f"psl2:{p}")
        assert p in multiset.degrees
    print("each contains an irreducible of degree p")


if __name__ == "__main__":
    main()
