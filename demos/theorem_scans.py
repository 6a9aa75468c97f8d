"""Scan prime ranges for the exceptional minimal-witness cases.

For degree p the candidates are the simple group PSL2(p) and a Frobenius
group (C_q)^m x| C_p of order p * q^m with q^m the least prime power
congruent to 1 mod p.  The Frobenius order wins for every prime except
p = 19, where PSL2(19) of order 3420 beats 19 * 191 = 3629.

For degree p^2 a third construction joins: the direct product of two
minimal degree-p witnesses (degrees multiply).  Here the extraspecial group
of order p^5 wins only at p = 19 again, a coincidence the two scans make
plain.  The final scan records that the least prime q = 1 mod p stayed
below p^2 throughout, the inequality the minimal orders hinge on.
"""

from chardeg import kanold_scan, scan_theorem_a, scan_theorem_b


def main():
    columns, case_a, _ = scan_theorem_a(200)
    print("degree p, primes up to 200:")
    for p, case, least in zip(columns["p"], columns["case_label"], columns["min_order"]):
        print(f"  p={p:<4} case ({case})  g(p) = {least}")
    print(f"simple-group wins: {list(case_a)}")

    columns, case_a, _ = scan_theorem_b(71)
    print("\ndegree p^2, primes up to 71:")
    for p, case, least in zip(columns["p"], columns["case_label"], columns["min_order"]):
        print(f"  p={p:<4} case ({case})  g(p^2) = {least}")
    print(f"extraspecial wins: {list(case_a)}")

    columns = kanold_scan(200)
    print("\nleast prime q = 1 (mod p) versus p^2:")
    for p, q, holds in zip(columns["p"], columns["q"], columns["holds"]):
        margin = "q < p^2" if holds else "q >= p^2  (!)"
        print(f"  p={p:<4} q={q:<6} {margin}")
    print("holds for all scanned primes" if all(columns["holds"]) else "violated in range")


if __name__ == "__main__":
    main()
