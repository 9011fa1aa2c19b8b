"""Q[t] and Q(t) algorithms on primitive integer representatives.

Every polynomial in this package has integer coefficients, and a nonzero
element of Q[t] is determined up to a rational unit by its primitive part,
so gcds, square-free decompositions and square tests all take and return
IntPolynomial.  GCDs run through homomorphic images modulo word-sized
primes just below 2^26 (a degree-0 image certifies coprimality outright)
and a CRT lift with trial division otherwise; the trial division's
quotients are the cofactors, which gcd_primitive returns with the gcd so no
caller divides again.  Each image runs Euclid on packed big-integer slots,
so no Python loop walks the coefficients of a division; square-freeness
certificates on orbit values of degree 4096 and more stay affordable.
Square-free decomposition is Yun's iterated-gcd scheme; no irreducible
factorization happens anywhere in this package.  The module keeps its name
because the benchmark tracer wraps the gcd, square-free and square-test
functions here by module path.
"""

from __future__ import annotations

import math

from .factorint import is_probable_prime
from .intpoly import IntPolynomial
from .integers import is_square_rational


# ---------------------------------------------------------------------------
# GCD machinery on primitive integer polynomials.
#
# Images mod p use primes in (2^25, 2^26), so every image coefficient fits in
# one CPython digit.  An image polynomial is one int with 128-bit slots, slot i
# holding coefficient i, and Euclid over F_p runs on these packed ints: an
# elimination step is one big-integer update, and a packed Barrett step
# (P. Barrett, CRYPTO '86) brings every slot back below 2p.  A slot that
# carried into its neighbour would corrupt the image, and a faked degree-0
# image would be a false coprimality certificate.  The bounds:
# - reduced slots are below 2p < 2^27, and an elimination step adds to each
#   slot at most once, q*b_i with q < p and b_i < 2p, so less than 2^53;
# - so within 2^11 steps of a reduction every slot stays below 2^65;
# - Barrett multiplies each slot by m = floor(2^88/p) < 2^63, so a slot below
#   2^65 gives a product below 2^128: the quotients floor(x*m/2^88) < 2^40
#   land in the low 40 bits of their slots after the shift, and x - q*p is
#   in [0, 2p).
# A division runs in windows of at most `chunk` = min(max(deg b, 64), 2^11)
# elimination steps; one shorter than that is a single window, the whole
# remainder.  A window lifts out only the slots its steps touch
# (k - deg b .. k for each step k) and is reduced before it is merged back,
# so each slot enters a window below 2p and takes at most 2^11 additions
# there, while the slots outside the window take none.  Every reduction
# first checks that no slot has reached 2^65.  A window costs
# O(chunk + deg b) per step, so a long division costs
# O((deg a - deg b) * deg b), not O((deg a - deg b) * deg a).

_PRIME_FLOOR = 1 << 25
_SLOT = 128
_SLOT_BYTES = _SLOT // 8
_BARRETT_SHIFT = 88
_STEPS_PER_REDUCTION = 1 << 11
_MIN_WINDOW_STEPS = 64
_SLOT_CEILING_BITS = 65


def _image_primes():
    """The primes in (2^25, 2^26), largest first."""
    n = 2 * _PRIME_FLOOR - 1
    while n > _PRIME_FLOOR:
        if is_probable_prime(n):
            yield n
        n -= 2


def _slot_mask(lo: int, hi: int, slots: int) -> int:
    """Bits lo..hi-1 of each of the given number of slots."""
    pattern = (((1 << hi) - 1) ^ ((1 << lo) - 1)).to_bytes(_SLOT_BYTES, "little")
    return int.from_bytes(pattern * slots, "little")


def _gcd_image(f: tuple[int, ...], g: tuple[int, ...], p: int) -> list[int]:
    """Monic gcd over F_p of f and g, whose leading coefficients p does not divide."""
    width = max(len(f), len(g))
    quotient_mask = _slot_mask(0, _SLOT - _BARRETT_SHIFT, width)
    overflow_mask = _slot_mask(_SLOT_CEILING_BITS, _SLOT, width)
    m = (1 << _BARRETT_SHIFT) // p
    top_mask = (1 << _SLOT) - 1

    def reduce(r: int) -> int:
        if r & overflow_mask:
            raise RuntimeError("modular gcd: a packed image slot reached 2^65")
        return r - (((r * m) >> _BARRETT_SHIFT) & quotient_mask) * p

    def pack(coeffs: tuple[int, ...]) -> int:
        return int.from_bytes(b"".join((c % p).to_bytes(_SLOT_BYTES, "little") for c in coeffs), "little")

    a, da, b, db = pack(f), len(f) - 1, pack(g), len(g) - 1
    if da < db:
        a, da, b, db = b, db, a, da
    while db > 0:
        inv = pow((b >> (_SLOT * db)) % p, -1, p)
        low = (1 << (_SLOT * db)) - 1
        chunk = min(max(db, _MIN_WINDOW_STEPS), _STEPS_PER_REDUCTION)
        # Steps k = top..bottom, at most `chunk` of them, touch only slots
        # bottom-db..top, and r holds no slot above top: each window shifts
        # those out, clears slots top..bottom mod p, and puts back the db
        # slots below them, reduced; the cleared slots are dropped.  A
        # division shorter than `chunk` is one window, the whole remainder.
        r = a
        for top in range(da, db - 1, -chunk):
            bottom = max(top - chunk + 1, db)
            shift = _SLOT * (bottom - db)
            w = r >> shift
            for k in range(top - bottom + db, db - 1, -1):
                t = ((w >> (_SLOT * k)) & top_mask) % p
                if t:
                    w += ((p - t) * inv % p * b) << (_SLOT * (k - db))
            r = (r & ((1 << shift) - 1)) | (reduce(w & low) << shift)
        dr = db - 1
        while dr >= 0 and (r >> (_SLOT * dr)) % p == 0:
            r &= (1 << (_SLOT * dr)) - 1
            dr -= 1
        a, da, b, db = b, db, r, dr
    if db == 0:
        return [1]
    raw = a.to_bytes(_SLOT_BYTES * (da + 1), "little")
    coeffs = [int.from_bytes(raw[i : i + _SLOT_BYTES], "little") % p for i in range(0, len(raw), _SLOT_BYTES)]
    inv = pow(coeffs[-1], -1, p)
    return [c * inv % p for c in coeffs]


def _symmetric(c: int, m: int) -> int:
    return c - m if 2 * c > m else c


def _norm_bits(f: IntPolynomial) -> int:
    """An exponent e with ||f||_2 <= 2^e, from ||f||_2 <= sqrt(len) * max|c|."""
    return f.max_abs_coefficient().bit_length() + (len(f.coeffs).bit_length() + 1) // 2


def _prime_budget(f: IntPolynomial, g: IntPolynomial, lc_bound: int) -> int:
    """How many image primes suffice for any primitive f, g (W. S. Brown, JACM 18 (1971)).

    A prime not dividing lc(f)*lc(g) gives an image of too high a degree only
    when it divides the leading coefficient sigma of the deg-gcd
    subresultant, and |sigma| <= ||f||_2^deg(g) * ||g||_2^deg(f) (Hadamard).
    The lifted image lc_bound/lc(h) * h of the gcd h has coefficients of
    absolute value at most lc_bound * 2^deg(h) * min(||f||_2, ||g||_2)
    (Landau-Mignotte), and the symmetric lift needs a modulus above twice
    that.  Every prime exceeds 2^25, so these many primes cover both the
    unlucky ones and the lift.
    """
    nf, ng = _norm_bits(f), _norm_bits(g)
    unlucky_bits = g.degree * nf + f.degree * ng
    lift_bits = 1 + lc_bound.bit_length() + min(f.degree, g.degree) + min(nf, ng)
    return (unlucky_bits + lift_bits) // 25 + 1


def gcd_primitive(f: IntPolynomial, g: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial, IntPolynomial]:
    """(h, f/h, g/h): the primitive gcd h (positive leading coefficient) of
    integer polynomials and the cofactors of the arguments as given.

    Modular images of the primitive parts with CRT and a trial-division
    check; h is primitive, so by Gauss's lemma it divides f and g in Z[t]
    and the check's quotients are the cofactors.  A degree-0 image
    certifies coprimality at once.  No fallback follows the loop: within
    the prime budget the lift provably succeeds, so spending it (or, for
    inputs whose budget exceeds the 1.9 million primes of the window,
    exhausting the window, which takes as many images) can only mean a
    wrong image, and raises rather than return a wrong gcd.
    """
    one = IntPolynomial((1,))
    # Yun's last step passes a zero second argument: h is then the other
    # argument's primitive part, whose cofactor is its signed content.
    if f.is_zero() or g.is_zero():
        h = (g if f.is_zero() else f).primitive_part()
        lc = h.leading_coefficient() or 1
        return h, IntPolynomial((f.leading_coefficient() // lc,)), IntPolynomial((g.leading_coefficient() // lc,))
    fp = f.primitive_part()
    gp = g.primitive_part()
    if fp.is_constant() or gp.is_constant():
        return one, f, g
    lc_f, lc_g = fp.leading_coefficient(), gp.leading_coefficient()
    lc_bound = math.gcd(lc_f, lc_g)
    budget = _prime_budget(fp, gp, lc_bound)
    best_deg = min(fp.degree, gp.degree) + 1
    modulus = 0
    residues: list[int] = []
    used = 0
    for p in _image_primes():
        if used >= budget:
            break
        if lc_f % p == 0 or lc_g % p == 0:
            continue
        used += 1
        h = _gcd_image(fp.coeffs, gp.coeffs, p)
        deg = len(h) - 1
        if deg == 0:
            return one, f, g
        scale = lc_bound % p
        h = [c * scale % p for c in h]
        if deg < best_deg:
            best_deg = deg
            modulus, residues = p, h
        elif deg == best_deg:
            # CRT combine with the accumulated image.
            new = []
            m, q = modulus, p
            inv = pow(m % q, q - 2, q)
            for i in range(best_deg + 1):
                a = residues[i] if i < len(residues) else 0
                b = h[i]
                t = (b - a) % q * inv % q
                new.append(a + m * t)
            modulus *= p
            residues = new
        else:
            continue
        lifted = IntPolynomial(tuple(_symmetric(c % modulus, modulus) for c in residues))
        cand = lifted.primitive_part()
        cf = f.divmod_exact_or_none(cand)
        if cf is not None:
            cg = g.divmod_exact_or_none(cand)
            if cg is not None:
                return cand, cf, cg
    raise RuntimeError("modular gcd: the prime budget ran out without a lift")


def is_squarefree(f: IntPolynomial) -> bool:
    """True iff f has no repeated factor in Q[t] (nonzero input)."""
    if f.is_zero():
        raise ValueError("square-freeness of the zero polynomial is undefined")
    if f.is_constant():
        return True
    return gcd_primitive(f, f.derivative())[0].is_constant()


def squarefree_decomposition(f: IntPolynomial) -> tuple[int, list[tuple[IntPolynomial, int]]]:
    """Yun decomposition: f == unit * prod(factor_i ** multiplicity_i).

    The unit is the content of f with the sign of its leading coefficient.
    Factors are primitive, pairwise coprime and square-free, with strictly
    increasing multiplicities.  Constants give an empty list.
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    unit = f.content() if f.leading_coefficient() > 0 else -f.content()
    if f.is_constant():
        return unit, []
    poly = f.primitive_part()
    a, b, c = gcd_primitive(poly, poly.derivative())
    if a.is_constant():
        return unit, [(poly, 1)]
    out: list[tuple[IntPolynomial, int]] = []
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        ai, b, c = gcd_primitive(b, d)
        if ai.degree > 0:
            out.append((ai, i))
        d = c - b.derivative()
        i += 1
    return unit, out


def is_square_qt(f: IntPolynomial) -> bool:
    """True iff f is the square of an element of Q(t) (equivalently of Q[t]):
    every Yun multiplicity is even and the signed content is a square."""
    if f.is_zero():
        return True
    if f.is_constant():
        return is_square_rational(f.constant_coefficient())
    if f.degree % 2 == 1 or f.leading_coefficient() < 0:
        return False
    unit, parts = squarefree_decomposition(f)
    return all(mult % 2 == 0 for _, mult in parts) and is_square_rational(unit)


def is_square(value) -> bool:
    """Square test in the fraction field: rationals or integer polynomials."""
    if isinstance(value, IntPolynomial):
        return is_square_qt(value)
    return is_square_rational(value)


def square_in_quadratic_extension(a, m) -> bool:
    """Whether a is a square in K(sqrt(m)), for K = Q or Q(t).

    Uses the classical criterion: for non-square m, a is a square in
    K(sqrt(m)) iff a or a*m is a square in K.  Rejects degenerate m.
    """
    if isinstance(a, IntPolynomial) != isinstance(m, IntPolynomial):
        raise TypeError("a and m must live in the same field")
    if m == 0:
        raise ValueError("m must be nonzero")
    if is_square(m):
        raise ValueError("m must not be a square (the extension is degenerate)")
    return is_square(a) or is_square(a * m)

