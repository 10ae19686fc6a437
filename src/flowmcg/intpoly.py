"""Integer polynomials as ascending coefficient lists, on the standard library.

`factor` is Zassenhaus's algorithm (Cohen, *A Course in Computational
Algebraic Number Theory*, 3.5): Yun's square-free parts, their factors
modulo one small odd prime by distinct- and equal-degree splitting (one
factor there proves irreducibility), Hensel lifting past twice a Mignotte
bound, and recombination by trial division. `real_root_intervals` is the
Vincent–Akritas–Strzeboński continued-fraction isolation
(Akritas–Strzeboński, Nonlinear Anal. Model. Control 10(4), 2005) with the
local-max-quadratic bound, step for step as sympy 1.14's `Poly.intervals()`:
its intervals, and so every endpoint that halving them later prints, are
sympy's. Only the bound's log2 is exact here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, count, zip_longest
from typing import Sequence


def is_prime(n: int) -> bool:
    """Baillie–PSW, as sympy's `isprime` for large n: trial division by the
    primes to 41, a strong probable-prime test to base 2, then a strong
    Lucas test with Selfridge's parameters (Baillie–Wagstaff, Math. Comp.
    35, 1980). No composite below 2^64 passes both tests."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(2, (n - 1) >> s, n)
    if x != 1 and n - 1 not in [x] + [x := x * x % n for _ in range(s - 1)]:
        return False
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5  # the first of 5, -7, 9, -11, ... with Jacobi symbol (d/n) = -1
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) != n:
            return False
        d = 2 - d if d < 0 else -d - 2
    q, half, s = (1 - d) // 4, (n + 1) // 2, ((n + 1) & -(n + 1)).bit_length() - 1
    u, v, qk = 1, 1, q % n  # U_k, V_k and Q^k modulo n for P = 1, from k = 1
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (d * u + v) * half % n, qk * q % n
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def _jacobi(a: int, n: int) -> int:
    a, j = a % n, 1
    while a:
        while not a & 1:
            a >>= 1
            if n % 8 in (3, 5):
                j = -j
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            j = -j
        a %= n
    return j if n == 1 else 0


def is_perfect_power(n: int) -> bool:
    """Whether n = b^e for integers b and e > 1; 0, 1 and -1 are not, as for
    sympy's `perfect_power`."""
    m = abs(n)
    for e in filter(is_prime, range(2 if n > 0 else 3, m.bit_length() + 1)):
        b = 1 << -(-m.bit_length() // e)  # Newton's method for the root, from above
        while (c := ((e - 1) * b + m // b ** (e - 1)) // e) < b:
            b = c
        if b**e == m:
            return True
    return False


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _mul(f: Sequence[int], g: Sequence[int]) -> list:
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _add(f: Sequence[int], g: Sequence[int], m: int, c: int = 1) -> list:
    """f + c·g modulo m."""
    return _trim([(x + c * y) % m for x, y in zip_longest(f, g, fillvalue=0)])


def _prod(factors, m: int, c: int = 1) -> list:
    out = [c % m]
    for u in factors:
        out = _add(_mul(out, u), (), m)
    return out


def _divmod(f: Sequence[int], g: Sequence[int], m: int) -> tuple[list, list]:
    """Quotient and remainder of f by g modulo m; g's lead is a unit mod m."""
    inv, n = pow(g[-1], -1, m), len(g) - 1
    r, q = [x % m for x in f], [0] * max(len(f) - n, 0)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + n] * inv % m
        for i, y in enumerate(g):
            r[k + i] = (r[k + i] - c * y) % m
    return q, _trim(r[:n])


def _monic_gcd(f: Sequence[int], g: Sequence[int], p: int) -> list:
    while g:
        f, g = g, _divmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [x * inv % p for x in f]


def _powmod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list:
    """a^e modulo f and p, for e >= 1."""
    out = _divmod(a, f, p)[1]
    for bit in bin(e)[3:]:
        out = _divmod(_mul(out, out), f, p)[1]
        if bit == "1":
            out = _divmod(_mul(out, a), f, p)[1]
    return out


def _primitive(f: Sequence[int]) -> list:
    """f over its content, with a positive lead."""
    c = math.gcd(*f) * (-1 if f and f[-1] < 0 else 1)
    return [x // c for x in f] if c else []


def _quotient(f: Sequence[int], g: Sequence[int]) -> list | None:
    """f / g when g divides f over Z, else None."""
    r, n = list(f), len(g) - 1
    q = [0] * max(len(f) - n, 0)
    for k in reversed(range(len(q))):
        q[k], rem = divmod(r[k + n], g[-1])
        if rem:
            return None
        for i, y in enumerate(g):
            r[k + i] -= q[k] * y
    return None if any(r) else q


def _gcd(f: Sequence[int], g: Sequence[int]) -> list:
    """Primitive greatest common divisor, by primitive pseudo-remainders."""
    while g:
        r = list(f)
        while len(r) >= len(g):
            c, k = r[-1], len(r) - len(g)
            r = [x * g[-1] for x in r]
            for i, y in enumerate(g):
                r[k + i] -= c * y
            _trim(r)
        f, g = g, _primitive(r)
    return _primitive(f)


def square_free_factors(f: Sequence[int]) -> list[tuple[list, int]]:
    """Yun's decomposition of a primitive polynomial with a positive lead:
    the (g, k), k increasing, with f the product of the g^k and each g
    primitive, square-free, nonconstant and prime to the others."""
    out, k, df = [], 1, [i * x for i, x in enumerate(f)][1:]
    b = _gcd(f, df)
    c, d = _quotient(f, b), _quotient(df, b)
    while len(c) > 1:
        dc = [i * x for i, x in enumerate(c)][1:]
        d = _trim([x - y for x, y in zip_longest(d, dc, fillvalue=0)])
        a = _gcd(c, d)
        if len(a) > 1:
            out.append((a, k))
        c, d, k = _quotient(c, a), _quotient(d, a), k + 1
    return out


def factor(asc: Sequence[int]) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """(c, factors) with f = c times the product of the g^k over factors:
    each g irreducible over Z, primitive with a positive lead, the list
    sorted, and c the content with the sign of f's lead, as sympy's
    `factor_list` gives them."""
    f = _trim([int(x) for x in asc])
    if len(f) < 2:
        return (f[0] if f else 0), []
    g = _primitive(f)
    zeros = next(i for i, x in enumerate(g) if x)
    out = [((0, 1), zeros)] if zeros else []
    for h, k in square_free_factors(g[zeros:]):
        out += [(tuple(u), k) for u in _factor_square_free(h)]
    return f[-1] // g[-1], sorted(out)


def _factor_square_free(f: list) -> list[list]:
    """The irreducible factors of a primitive square-free f with f(0) != 0,
    from its factors modulo the first odd prime that keeps its degree and
    square-freeness: one factor there proves f irreducible, else they are
    lifted to a modulus beyond twice the Mignotte bound, and each least
    subset whose product, times the lead and in symmetric residues, divides
    the rest of f over Z is split off."""
    for p in filter(is_prime, count(3, 2)):
        if f[-1] % p:
            fp = _prod([f], p, pow(f[-1], -1, p))
            if len(_monic_gcd(fp, _add([i * x for i, x in enumerate(fp)][1:], (), p), p)) == 1:
                break
    lifted = _factor_mod(fp, p)
    if len(lifted) == 1:
        return [f]
    bound = abs(f[-1]) * 2 ** (len(f) - 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    # Hensel, one power of p at a time: with a_i the inverse of the lead times
    # the other factors modulo u_i and p (a field, so by a power), the a_i·e
    # modulo u_i correct the factors u_i by the error e = f - lead·prod u_i
    inverses = [
        _powmod(_prod(lifted[:i] + lifted[i + 1:], p, f[-1]), p ** (len(u) - 1) - 2, u, p)
        for i, u in enumerate(lifted)
    ]
    mod = p
    while mod <= 2 * bound:
        e = [x // mod for x in _add(f, _prod(lifted, mod * p, f[-1]), mod * p, -1)]
        lifted = [_add(u, [mod * x for x in _divmod(_mul(a, e), u, p)[1]], mod * p)
                  for u, a in zip(lifted, inverses)]
        mod *= p
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = _prod((lifted[i] for i in subset), mod, f[-1])
            g = _primitive([x - mod if 2 * x > mod else x for x in g])
            q = _quotient(f, g) if g[0] and f[0] % g[0] == 0 else None
            if q is not None:
                out.append(g)
                f, lifted = q, [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def _factor_mod(f: list, p: int) -> list[list]:
    """The monic irreducible factors of a monic square-free f modulo an odd
    prime p: x^(p^d) - x collects those of degree d, and gcds with
    a^((p^d - 1)/2) - 1 split them apart, a taking every residue in turn as
    the polynomial with the base-p digits of p, p + 1, ... as coefficients."""
    out, h, d, k = [], [0, 1], 0, p
    while len(f) - 1 >= 2 * (d + 1):
        d, h = d + 1, _powmod(h, p, f, p)
        g = _monic_gcd(f, _add(h, [0, 1], p, -1), p)
        if len(g) == 1:
            continue  # no factor of degree d: f and h stay as they are
        f, todo = _divmod(f, g, p)[0], [g]
        h = _divmod(h, f, p)[1]
        while todo:
            u = todo.pop()
            if len(u) - 1 == d:
                out.append(u)
                continue
            a, k = [k // p**i % p for i in range(len(u) - 1)], k + 1
            w = _monic_gcd(u, _add(_powmod(a, (p**d - 1) // 2, u, p), [1], p, -1), p)
            todo += [w, _divmod(u, w, p)[0]] if 1 < len(w) < len(u) else [u]
    return out + [f] if len(f) > 1 else out


def real_root_intervals(asc: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals (lo, hi), in increasing order, of the real roots
    of a primitive square-free polynomial, as sympy's `Poly.intervals()`
    gives them: (q, q) for a rational root q met exactly."""
    f = list(asc)
    out, f = ([], f) if f[0] else ([(Fraction(0), Fraction(0))], f[1:])
    negative = positive_root_intervals([-x if i & 1 else x for i, x in enumerate(f)])
    return sorted(out + [(-hi, -lo) for lo, hi in negative] + positive_root_intervals(f))


def positive_root_intervals(asc: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    """Those of `real_root_intervals` that hold positive roots, for f(0) != 0."""
    return [tuple(sorted((Fraction(a, c), Fraction(b, d)))) for a, b, c, d in _positive_roots(list(asc))]


def count_real_roots(asc: Sequence[int], lo: Fraction | int, hi: Fraction | int) -> int:
    """The number of roots in the open interval (lo, hi) of a square-free
    polynomial f: the positive roots of (x + 1)^n·f((lo + hi·x)/(x + 1))
    once a root x = 0 (f(lo) = 0) is divided out."""
    (p, q), (r, s) = Fraction(lo).as_integer_ratio(), Fraction(hi).as_integer_ratio()
    g, power = [asc[-1]], [1]
    for c in reversed(asc[:-1]):
        power = _mul(power, [q * s, q * s])
        g = [x + c * y for x, y in zip_longest(_mul(g, [p * s, r * q]), power, fillvalue=0)]
    g = _trim(g)  # f(hi) = 0 drops the degree
    return len(_positive_roots(g[next(i for i, x in enumerate(g) if x):]))


def _variations(f: Sequence[int]) -> int:
    signs = [x > 0 for x in f if x]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _shift(f: Sequence[int], a: int) -> list:
    """f(x + a), by repeated synthetic division."""
    f, n = list(f), len(f) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            f[j] += a * f[j + 1]
    return f


def _lower_bound(f: Sequence[int]) -> int:
    """The integer part of the local-max-quadratic lower bound of the
    positive roots of f (Akritas–Strzeboński–Vigklas 2008): one over the
    upper bound 2^(e + 1) for those of the reversal h."""
    h = _trim(list(f[::-1]))
    h, used, e = [-x for x in h] if h[-1] < 0 else h, [1] * len(h), None
    for i, x in enumerate(h):
        if x < 0 and (options := [
            ((used[j] + (-x).bit_length() - h[j].bit_length()) // (j - i), j)
            for j in range(i + 1, len(h)) if h[j] > 0
        ]):
            best, j = min(options)
            used[j] += 1
            e = best if e is None else max(e, best)
    return 2 ** -(e + 1) if e is not None and e < 0 else 0


def _positive_roots(f: list) -> list[tuple[int, int, int, int]]:
    """Möbius maps x -> (a·x + b)/(c·x + d) whose images of (0, oo) isolate
    the positive roots of a square-free f with f(0) != 0 (a = b and c = d
    for a rational root met exactly): sympy's continued-fraction search,
    which shifts by the lower bound and splits at 1 until each part holds
    one root, and splits a part with one root until its image is bounded."""
    roots, todo = [], [((1, 0, 0, 1), f, _variations(f))]
    while todo:
        (a, b, c, d), f, k = todo.pop()
        if k == 0 or k == 1 and c:
            roots += [(a, b, c, d)] if k else []
            continue
        shift = _lower_bound(f)
        if shift >= 1:
            f, b, d = _shift(f, shift), shift * a + b, shift * c + d
            if not f[0]:
                roots.append((b, b, d, d))
                f = f[1:]
            # a part that held several roots and now holds at most one goes
            # back on the stack, to be refined from scratch as sympy does
            k, was = _variations(f), k
            if k < min(was, 2):
                todo.append(((a, b, c, d), f, k))
                continue
        f1, r = _shift(f, 1), 0
        if not f1[0]:
            roots.append((a + b, a + b, c + d, c + d))
            f1, r = f1[1:], 1
        k1 = _variations(f1)
        # (0, 1) holds at most k2 roots, exactly k2 when that is 0 or 1, and
        # they are the positive roots of (x + 1)^n·f(1/(x + 1))
        k2 = k - k1 - r
        f2 = _shift(_trim(f[::-1]), 1) if k2 else [1]
        f2 = f2 if f2[0] else f2[1:]
        k2 = _variations(f2) if k2 > 1 else k2
        todo += [((a, a + b, c, c + d), f1, k1), ((b, a + b, d, c + d), f2, k2)]
    return roots
