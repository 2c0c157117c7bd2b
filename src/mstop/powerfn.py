"""Exact function algebra on piecewise power-log sums.

A function is a sum of terms c * x^p * (ln x)^k on the intervals of a
partition of (0, inf).  Each piece is stored keyed by exponent: a dict that
maps every exponent p, an exact float, to the coefficients [c_0, ..., c_K]
of the polynomial in ln x that multiplies x^p.  The universe is closed under
linear combination, under the derivative of f(x)/x^p, under the generator
and under the resolvent operator of geometric Brownian motion; all are
computed in closed form with no discretization.

The resolvent never recomputes an exponent: each input exponent comes back
as a key of the output, and the two roots of theta(p) = q are added exactly
as root_pair returns them.  The few exponents of the finite-rights recursion
(0, 1, b, beta, alpha) therefore stay bit-identical through any number of
stages, and resonance -- an input exponent that is itself a root, so
theta(p) = q -- is an exact float comparison.  A resonant term raises the
log power by one instead of producing a pole; the recursion produces such
terms from the third exercise right onward.  Terms supplied by callers as
PowerTerms are canonicalized once, on construction.

One kernel, _value, evaluates every sum of x^p C(ln x) terms, for a float
or an array x, with augmented assignments: they rebind floats and update
arrays in place, so both run the same arithmetic.  Array evaluation counts
the breakpoints below each point, a block of points at a time, to find its
piece, groups the points by piece and touches only the pieces that hold
points, with one kernel call each; a piece without log terms takes no logs.
The ladder's check grid in finite runs its own piece-major loop with the
same operations in the same order, pinned to f(x) by a test.
The resolvent takes each term in one backward pass over its log
coefficients: both antiderivative recurrences and Horner's rule run from
the top log power down, so one loop yields the two antiderivatives, the
particular part and the antiderivatives' values at the piece's two ends.
The homogeneous coefficients are running sums of the jumps of those end
values across the breakpoints.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import accumulate

from mstop.model import GbmModel, root_pair

# Type checkers take this as true; at run time neither typing nor numpy loads.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np
    import numpy.typing as npt

# Caller-supplied exponents within this absolute tolerance share one key; an
# input exponent within it of a resolvent root makes the integral diverge.
EXPONENT_MERGE_TOL = 1e-12
# Coefficients below this magnitude are dropped.
COEF_DROP_TOL = 1e-300

# Points per block of evaluate_many's piece lookup: its comparison table
# takes 16 kB per breakpoint, and numpy sums blocks of at least 4096 points
# several times faster per comparison than shorter ones.
_LOOKUP_BLOCK = 1 << 14

# One piece keyed by exponent: p -> [c_0, ..., c_K] for x^p * sum_k c_k ln^k x.
Poly = dict[float, list[float]]


class DivergenceError(ValueError):
    """An operator integral diverges for the given input."""


class PowerTerm(namedtuple("PowerTerm", "coef exponent log_power")):
    """A single term c * x^exponent * (ln x)^log_power."""

    __slots__ = ()

    def __new__(cls, coef: float, exponent: float, log_power: int = 0) -> PowerTerm:
        if not (math.isfinite(coef) and math.isfinite(exponent)):
            raise ValueError(f"non-finite term ({coef}, {exponent})")
        if log_power < 0:
            raise ValueError(f"log_power must be >= 0, got {log_power}")
        return super().__new__(cls, coef, exponent, log_power)


# -- log-polynomial helpers -----------------------------------------------------


def _add_coef(poly: Poly, p: float, k: int, c: float) -> None:
    cs = poly.setdefault(p, [])
    if len(cs) <= k:
        cs.extend([0.0] * (k + 1 - len(cs)))
    cs[k] += c


def _axpy(dst: Poly, src: Poly, scale: float) -> None:
    """dst += scale * src; the lists in dst belong to the caller."""
    for p, cs in src.items():
        d = dst.get(p)
        if d is None:
            dst[p] = [scale * c for c in cs]
            continue
        if len(d) < len(cs):
            d.extend([0.0] * (len(cs) - len(d)))
        for k, c in enumerate(cs):
            d[k] += scale * c


def _trim(poly: Poly) -> Poly:
    """Drop negligible top log powers, and exponents left with none."""
    out: Poly = {}
    for p, cs in poly.items():
        n = len(cs)
        while n and abs(cs[n - 1]) <= COEF_DROP_TOL:
            n -= 1
        if n:
            out[p] = cs if n == len(cs) else cs[:n]
    return out


def _canonical_poly(terms: Iterable[PowerTerm]) -> Poly:
    # Caller-supplied exponents that agree within tolerance merge into the
    # smallest of them: near-duplicate keys would otherwise be two terms of
    # one function that resonance and divergence tests treat differently.
    poly: Poly = {}
    key = -math.inf
    for t in sorted(terms, key=lambda t: (t.exponent, t.log_power)):
        if t.exponent - key > EXPONENT_MERGE_TOL:
            key = t.exponent
        _add_coef(poly, key, t.log_power, t.coef)
    return poly


def _value(terms: Iterable[tuple[float, Sequence[float]]], x, lx):
    """Sum of x^p C(lx) over the (p, C) pairs, C by Horner's rule in
    lx = ln x; x and lx are floats or arrays of one shape, and lx may be
    None when every C is a constant.

    Augmented assignment rebinds floats and updates arrays in place, so
    floats and arrays run the same arithmetic: C's Horner value
    ((c_K lx + c_(K-1)) lx + ...) + c_0 times x^p for each term, the terms
    summed in order onto 0.0.
    """
    total = 0.0
    for p, cs in terms:
        it = reversed(cs)
        acc = next(it)
        for c in it:
            acc *= lx
            acc += c
        t = x**p
        t *= acc
        total += t
    return total


def ratio_coefs(e: float, cs: Sequence[float]) -> list[float]:
    """Coefficients of y^(1-e) d/dy [y^e C(ln y)] = e C + C' in ln y."""
    return [e * c + (k + 1) * n for k, (c, n) in enumerate(zip(cs, [*cs[1:], 0.0]))]


# -- piecewise sums --------------------------------------------------------------


class PiecewisePowerSum:
    """Piecewise power-log sum on (0, inf) with right-closed intervals.

    Pieces cover (0, x_1], (x_1, x_2], ..., (x_m, inf).  `polys[j]` is piece
    j keyed by exponent; results of the algebra share these dicts and lists,
    so they must not be mutated.  `polys` is the only stored form: the
    constructor takes PowerTerms and canonicalizes them into it, and
    `to_json_dict()` lists its terms.
    """

    __slots__ = ("breakpoints", "polys")

    def __init__(
        self,
        breakpoints: Iterable[float],
        pieces: Iterable[Iterable[PowerTerm]],
    ) -> None:
        bps = tuple(float(x) for x in breakpoints)
        pieces = tuple(pieces)
        if any(x <= 0.0 or not math.isfinite(x) for x in bps):
            raise ValueError(f"breakpoints must be positive finite: {bps}")
        if any(x1 >= x2 for x1, x2 in zip(bps, bps[1:])):
            raise ValueError(f"breakpoints must be strictly increasing: {bps}")
        if len(pieces) != len(bps) + 1:
            raise ValueError(
                f"expected {len(bps) + 1} pieces for {len(bps)} breakpoints, "
                f"got {len(pieces)}"
            )
        self.breakpoints = bps
        self.polys = tuple(_trim(_canonical_poly(p)) for p in pieces)

    @classmethod
    def from_polys(
        cls, breakpoints: Iterable[float], polys: Iterable[Poly]
    ) -> "PiecewisePowerSum":
        """Build from exponent-keyed pieces on valid breakpoints; the result
        takes ownership of the dicts and lists."""
        f = object.__new__(cls)
        f.breakpoints = tuple(breakpoints)
        f.polys = tuple(_trim(p) for p in polys)
        return f

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: float) -> float:
        if not 0.0 < x < math.inf:
            raise ValueError(f"x must be positive and finite, got {x}")
        poly = self.polys[bisect_left(self.breakpoints, x)]
        return _value(poly.items(), x, math.log(x))

    def evaluate_many(self, x: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        """Vectorized evaluation on an array of positive finite points.

        Each point's piece is the number of breakpoints below it: a block of
        points is compared with every breakpoint at once and the comparisons
        are summed, O(pieces x points) in a few numpy calls per block.  On
        10^5 points this beat np.searchsorted, whose binary search over
        unsorted points is branch-bound, at 6, 22 and 83 pieces (H^100 has
        82); on 232 points, the quadrature oracle's mean call, it cost up to
        about 10 us a call more, and at 301 pieces it lost at both sizes.
        A stable radix sort of the piece indices groups the points, and
        each nonempty piece gathers its own points, evaluates them in place
        and scatters the values back; a piece without log terms skips the
        logs.
        """
        # The only numpy use in the exact algebra: the solver runs on floats.
        import numpy as np

        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        if flat.size and not (flat.min() > 0.0 and flat.max() < math.inf):
            raise ValueError("all evaluation points must be positive and finite")
        # The result is allocated before the temporaries: on the ladder
        # benchmark this ordering lowers peak RSS by about 1 MB (glibc heap).
        out = np.zeros(flat.size)
        polys = self.polys
        # Right-closed, as bisect_left.  The smallest unsigned dtype that
        # holds the index: numpy sorts integers of up to 16 bits stably by
        # radix, in linear time.
        dtype = np.min_scalar_type(len(polys) - 1)
        bps = np.array(self.breakpoints)[:, None]
        idx = np.empty(flat.size, dtype)
        for s in range(0, flat.size, _LOOKUP_BLOCK):
            block = slice(s, s + _LOOKUP_BLOCK)
            np.add.reduce(flat[block] > bps, axis=0, dtype=dtype, out=idx[block])
        order = np.argsort(idx, kind="stable")
        ends = np.bincount(idx, minlength=len(polys)).cumsum().tolist()
        start = 0
        for poly, end in zip(polys, ends):
            if poly and end > start:
                sel = order[start:end]
                xs = flat[sel]
                logs = any(len(cs) > 1 for cs in poly.values())
                out[sel] = _value(poly.items(), xs, np.log(xs) if logs else None)
            start = end
        return out.reshape(x.shape)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiecewisePowerSum):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()

    def __repr__(self) -> str:
        return f"PiecewisePowerSum(breakpoints={self.breakpoints}, polys={self.polys})"

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Nonnegligible terms of each piece, sorted by (exponent, log power);
        "logpow" is omitted when it is 0."""
        return {
            "breakpoints": list(self.breakpoints),
            "pieces": [
                [
                    {"coef": c, "exp": p, "logpow": k} if k else {"coef": c, "exp": p}
                    for p in sorted(poly)
                    for k, c in enumerate(poly[p])
                    if abs(c) > COEF_DROP_TOL
                ]
                for poly in self.polys
            ],
        }


def call_payoff(strike: float) -> PiecewisePowerSum:
    """(x - K)^+ as a two-piece power sum."""
    return PiecewisePowerSum(
        (strike,), ((), (PowerTerm(1.0, 1.0), PowerTerm(-strike, 0.0)))
    )


# -- public operations --------------------------------------------------------


def combine(
    f: PiecewisePowerSum,
    g: PiecewisePowerSum,
    cf: float = 1.0,
    cg: float = 1.0,
) -> PiecewisePowerSum:
    """Exact cf*f + cg*g with merged breakpoints."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    polys: list[Poly] = []
    for j in range(len(bps) + 1):
        # Right-closed intervals: the closing endpoint identifies the source
        # piece; the unbounded last interval probes with +inf.
        probe = bps[j] if j < len(bps) else math.inf
        m: Poly = {}
        _axpy(m, f.polys[bisect_left(f.breakpoints, probe)], cf)
        _axpy(m, g.polys[bisect_left(g.breakpoints, probe)], cg)
        polys.append(m)
    return PiecewisePowerSum.from_polys(bps, polys)


def _resolvent_term(
    u: float, cs: Sequence[float], s1: float, s2: float, l_lo: float, l_hi: float
) -> tuple[list[float], float, float, float, float]:
    """One term u y^p C(ln y) of the resolvent, in one backward pass over C.

    The integrands y^(s-1) u C(ln y), for s = s1 and s = s2, have the
    antiderivatives y^s D(ln y) with s d_k + (k+1) d_(k+1) = u c_k, or, for
    s == 0, D = integral of u C with D(0) = 0 and one more log power.  Both
    recurrences and Horner's rule run from the top log power down, so one
    loop yields the particular part D1 - D2 and the Horner values of D1 and
    D2 at ln y = l_lo and l_hi.  Returns (D1 - D2, D1(l_lo), D1(l_hi),
    D2(l_lo), D2(l_hi)); the powers y^s are the caller's.
    """
    n = len(cs)
    if s1 and s2:
        out = [0.0] * n
        e1 = e2 = 0.0  # (k+1) d_(k+1) of each recurrence
        a1_lo = a1_hi = a2_lo = a2_hi = 0.0
        for k in range(n - 1, -1, -1):
            c = u * cs[k]
            d1 = (c - e1) / s1
            d2 = (c - e2) / s2
            e1 = k * d1
            e2 = k * d2
            out[k] = d1 - d2
            a1_lo = a1_lo * l_lo + d1
            a1_hi = a1_hi * l_hi + d1
            a2_lo = a2_lo * l_lo + d2
            a2_hi = a2_hi * l_hi + d2
        return out, a1_lo, a1_hi, a2_lo, a2_hi
    # Resonant: D_r = integral of u C has d_(k+1) = u c_k / (k+1) and d_0 = 0;
    # the other antiderivative D_n, of exponent s, has no term of log power n.
    # Step k yields D_r's coefficient of log power k + 1 and D_n's of k, so
    # the part's coefficient k + 1 pairs D_r's with D_n's from step k + 1.
    d1_resonant = not s1
    s = s2 if d1_resonant else s1
    out = [0.0] * (n + 1)
    e = prev = 0.0
    ar_lo = ar_hi = an_lo = an_hi = 0.0
    for k in range(n - 1, -1, -1):
        c = u * cs[k]
        dr = c / (k + 1)
        dn = (c - e) / s
        e = k * dn
        out[k + 1] = dr - prev if d1_resonant else prev - dr
        prev = dn
        ar_lo = ar_lo * l_lo + dr
        ar_hi = ar_hi * l_hi + dr
        an_lo = an_lo * l_lo + dn
        an_hi = an_hi * l_hi + dn
    ar_lo = ar_lo * l_lo + 0.0
    ar_hi = ar_hi * l_hi + 0.0
    if d1_resonant:
        out[0] = 0.0 - prev
        return out, ar_lo, ar_hi, an_lo, an_hi
    out[0] = prev
    return out, an_lo, an_hi, ar_lo, ar_hi


def resolvent_apply(
    f: PiecewisePowerSum, q: float, model: GbmModel
) -> PiecewisePowerSum:
    """Exact resolvent R_q f of geometric Brownian motion.

    Uses the integral representation
        R_q f(x) = B_q^{-1} [ phi_q(x) int_0^x psi_q f m' dy
                              + psi_q(x) int_x^inf phi_q f m' dy ]
    with psi_q = x^{p_q}, phi_q = x^{m_q} (the positive/negative roots of
    theta(p) = q), m'(y) = (2/sigma^2) y^{2 mu/sigma^2 - 2} and
    B_q = p_q - m_q.  Since p_q + m_q = 1 - 2 mu/sigma^2, the integrands of a
    term y^p C(ln y) are y^{s-1} C(ln y) with s = p - m_q and s = p - p_q,
    and both particular parts multiply back to x^p: every input exponent is
    an output key, never recomputed.  Each piece integrates in closed form;
    output breakpoints equal input breakpoints.  A resonant input exponent
    (p equal to p_q or m_q, so s == 0) raises the log power by one instead
    of producing a pole.
    """
    pq, mq = root_pair(model, q)
    b_q = pq - mq
    u = 2.0 / (model.sigma * model.sigma * b_q)
    polys = f.polys

    # Convergence of the two one-sided integrals.
    for p in polys[0]:
        if p - mq <= EXPONENT_MERGE_TOL:
            raise DivergenceError(
                f"lower integral diverges: leftmost exponent {p} <= {mq}"
            )
    for p in polys[-1]:
        if pq - p <= EXPONENT_MERGE_TOL:
            raise DivergenceError(
                f"upper integral diverges: rightmost exponent {p} >= {pq}"
            )

    # Per piece k: the particular part, and the antiderivatives F1_k of
    # u psi_q f m' and F2_k of u phi_q f m' at the piece's two ends.  The
    # first piece's left end and the last piece's right end are placeholders
    # (x = 1, ln x = 0) whose values go unused.
    bps = f.breakpoints
    xs = (1.0, *bps, 1.0)
    lxs = (0.0, *map(math.log, bps), 0.0)
    parts: list[Poly] = []
    ends: list[tuple[float, float, float, float]] = []  # F1 lo, hi, F2 lo, hi
    for k, poly in enumerate(polys):
        x_lo, x_hi, l_lo, l_hi = xs[k], xs[k + 1], lxs[k], lxs[k + 1]
        part: Poly = {}
        f1_lo = f1_hi = f2_lo = f2_hi = 0.0
        for p, cs in poly.items():
            s1, s2 = p - mq, p - pq
            part[p], a1_lo, a1_hi, a2_lo, a2_hi = _resolvent_term(
                u, cs, s1, s2, l_lo, l_hi
            )
            f1_lo += a1_lo * x_lo**s1
            f1_hi += a1_hi * x_hi**s1
            f2_lo += a2_lo * x_lo**s2
            f2_hi += a2_hi * x_hi**s2
        parts.append(part)
        ends.append((f1_lo, f1_hi, f2_lo, f2_hi))

    # Homogeneous coefficients.  On piece k = (b_(k-1), b_k]:
    #   phi coefficient = int_0^b_(k-1) u psi f m' - F1_k(b_(k-1)),
    #   psi coefficient = F2_k(b_k) + int_b_k^inf u phi f m',
    # which are 0 on the first and the last piece respectively, because
    # F1_0(0) = 0 and F2_m(inf) = 0 by the convergence checks.  So they are
    # running sums of the jumps at the breakpoints:
    #   c_phi[k+1] = c_phi[k] + F1_k(b_k) - F1_(k+1)(b_k)   forward,
    #   c_psi[k] = c_psi[k+1] + F2_k(b_k) - F2_(k+1)(b_k)   backward.
    jump_phi = [e[1] - e_next[0] for e, e_next in zip(ends, ends[1:])]
    jump_psi = [e[3] - e_next[2] for e, e_next in zip(ends, ends[1:])]
    c_phi = accumulate(jump_phi, initial=0.0)
    c_psi = reversed([*accumulate(reversed(jump_psi), initial=0.0)])
    for part, a, b in zip(parts, c_phi, c_psi):
        _add_coef(part, mq, 0, a)
        _add_coef(part, pq, 0, b)
    return PiecewisePowerSum.from_polys(f.breakpoints, parts)
