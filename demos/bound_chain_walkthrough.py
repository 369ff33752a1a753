# The bound chain behind the exceptional-set estimate, evaluated with
# exact integers at desk scale.  The idea: pick a small set N of numbers
# in the window (u, u+h] where the product of two distinct members is
# never a square.  A prime p with no non-residue in the window gives the
# symbol value +1 on all of N (0 at most once), so the squared character
# sum over N is at least (|N|-1)^2.  Summing those squares over every p
# in [Q, 2Q], and then over the larger rough set, costs only the
# square-product pairs, which are the diagonal ones, T = |N|, times the
# set size, so few primes can be exceptional.

from qrstats import proof_trace


def walk(Q, u, h, eta):
    t = proof_trace(Q, u, h, eta)
    print(f"Q = {t.Q}, u = {t.u}, h = {t.h}, eta = {t.eta}")
    print(f"  regime: {t.regime}" + (" (forced)" if t.forced_regime else ""))
    print(f"  N: {t.N_size} members, all {t.class_mod4} mod 4; square-product pairs T = {t.T}")
    print(f"  rough set: {t.rough_size} members of [1, {t.M}] with no prime factor <= {t.M}^{t.eta}")
    print(f"  exceptional primes in [Q, 2Q]: {t.exceptional}")
    print("  the chain, exactly:")
    lhs = t.exceptional * (t.N_size - 1) ** 2
    print(f"    exceptional * (N-1)^2 = {lhs}")
    print(f"    <= S_direct  = {t.S_direct}   (squared sums over the primes)")
    print(f"    <= S_rough   = {t.S_rough}   (same, over the whole rough set)")
    print("  splitting S_rough by whether the pair product is a square:")
    print(f"    square pairs contribute    {t.square_pair_sum}  (at most T * rough = {t.square_pair_bound})")
    print(f"    non-square pairs carry     {t.nonsquare_pair_sum}  (signed, cancels)")
    print(f"  so the count of exceptional primes is at most {t.exceptional_bound:.2f}")
    print("  scale of the displayed bound terms (constants dropped):")
    for name, value in t.rhs_terms.items():
        print(f"    {name}: {value:.3g}")
    for note in t.notes:
        print(f"  note: {note}")
    print()


def main():
    walk(10**3, 0, 12, 0.15)
    walk(10**4, 10**4, 8, 0.15)
    walk(10**5, 10**5, 50, 0.1)


if __name__ == "__main__":
    main()
