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
or an array x: pieces, closed-form integrals and the resolvent's
antiderivatives alike.  Array evaluation groups the points by piece and
touches only the pieces that hold points, with one kernel call each.  The
resolvent's homogeneous coefficients are running sums of their jumps across
the breakpoints, so each piece's antiderivatives are evaluated only at that
piece's own two ends.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Sequence

from mstop.model import GbmModel, root_pair

if TYPE_CHECKING:
    import numpy as np
    import numpy.typing as npt

# Caller-supplied exponents within this absolute tolerance share one key; an
# input exponent within it of a resolvent root makes the integral diverge.
EXPONENT_MERGE_TOL = 1e-12
# Coefficients below this magnitude are dropped.
COEF_DROP_TOL = 1e-300

# One piece keyed by exponent: p -> [c_0, ..., c_K] for x^p * sum_k c_k ln^k x.
Poly = dict[float, list[float]]


class DivergenceError(ValueError):
    """An operator integral diverges for the given input."""


@dataclass(frozen=True)
class PowerTerm:
    """A single term c * x^exponent * (ln x)^log_power."""

    coef: float
    exponent: float
    log_power: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.coef) and math.isfinite(self.exponent)):
            raise ValueError(f"non-finite term ({self.coef}, {self.exponent})")
        if self.log_power < 0:
            raise ValueError(f"log_power must be >= 0, got {self.log_power}")


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
    lx = ln x; x and lx are floats or arrays of one shape."""
    total = 0.0
    for p, cs in terms:
        acc = 0.0
        for c in reversed(cs):
            acc = acc * lx + c
        total += acc * x**p
    return total


def ratio_coefs(e: float, cs: Sequence[float]) -> list[float]:
    """Coefficients of y^(1-e) d/dy [y^e C(ln y)] = e C + C' in ln y."""
    return [e * c + (k + 1) * n for k, (c, n) in enumerate(zip(cs, [*cs[1:], 0.0]))]


def _antiderivative(s: float, cs: Sequence[float]) -> list[float]:
    """Coefficients d of D with d/dy [y^s D(ln y)] = y^(s-1) C(ln y).

    For s != 0 this is the backward recurrence s d_k + (k+1) d_(k+1) = c_k;
    for s == 0 it is D = integral of C with D(0) = 0 (one more log power).
    """
    if s == 0.0:
        return [0.0] + [c / (k + 1) for k, c in enumerate(cs)]
    d = [0.0] * len(cs)
    carry = 0.0  # (k+1) d_(k+1)
    for k in range(len(cs) - 1, -1, -1):
        d[k] = (cs[k] - carry) / s
        carry = k * d[k]
    return d


def power_log_integral(s: float, cs: Sequence[float], lo: float, hi: float) -> float:
    """Integral of y^(s-1) * sum_k cs[k] ln^k y over (lo, hi] in closed form.

    hi may be math.inf when s < 0, where the antiderivative vanishes.
    """
    d = _antiderivative(s, cs)
    if math.isinf(hi):
        if s >= 0.0 and any(d):
            raise DivergenceError(
                f"integral to infinity diverges; antiderivative exponent {s}"
            )
        upper = 0.0
    else:
        upper = _value([(s, d)], hi, math.log(hi))
    return upper - _value([(s, d)], lo, math.log(lo))


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

        Each point's piece is found once; a stable radix sort of the piece
        indices groups the points, and each nonempty piece gathers its own
        points, evaluates them and scatters the values back.
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
        # Piece indices in the smallest unsigned dtype that holds them: numpy
        # sorts integers of up to 16 bits stably by radix, in linear time.
        idx = np.searchsorted(self.breakpoints, flat, side="left").astype(
            np.min_scalar_type(len(polys) - 1)
        )
        order = np.argsort(idx, kind="stable")
        ends = np.bincount(idx, minlength=len(polys)).cumsum().tolist()
        start = 0
        for poly, end in zip(polys, ends):
            if poly and end > start:
                sel = order[start:end]
                xs = flat[sel]
                out[sel] = _value(poly.items(), xs, np.log(xs))
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
    # u psi_q f m' and F2_k of u phi_q f m' as (s, D) pairs.
    parts: list[Poly] = []
    anti_psi: list[list[tuple[float, list[float]]]] = []
    anti_phi: list[list[tuple[float, list[float]]]] = []
    for poly in polys:
        part: Poly = {}
        a1, a2 = [], []
        for p, cs in poly.items():
            cu = [u * c for c in cs]
            d1 = _antiderivative(p - mq, cu)
            d2 = _antiderivative(p - pq, cu)
            a1.append((p - mq, d1))
            a2.append((p - pq, d2))
            part[p] = list(d1)
            _axpy(part, {p: d2}, -1.0)
        parts.append(part)
        anti_psi.append(a1)
        anti_phi.append(a2)

    # Homogeneous coefficients.  On piece k = (b_(k-1), b_k]:
    #   phi coefficient = int_0^b_(k-1) u psi f m' - F1_k(b_(k-1)),
    #   psi coefficient = F2_k(b_k) + int_b_k^inf u phi f m',
    # which are 0 on the first and the last piece respectively, because
    # F1_0(0) = 0 and F2_m(inf) = 0 by the convergence checks.  So they are
    # running sums of the jumps at the breakpoints:
    #   c_phi[k+1] = c_phi[k] + F1_k(b_k) - F1_(k+1)(b_k)   forward,
    #   c_psi[k] = c_psi[k+1] + F2_k(b_k) - F2_(k+1)(b_k)   backward.
    jump_phi, jump_psi = [], []
    for k, x in enumerate(f.breakpoints):
        lx = math.log(x)
        jump_phi.append(_value(anti_psi[k], x, lx) - _value(anti_psi[k + 1], x, lx))
        jump_psi.append(_value(anti_phi[k], x, lx) - _value(anti_phi[k + 1], x, lx))
    c_phi = accumulate(jump_phi, initial=0.0)
    c_psi = reversed([*accumulate(reversed(jump_psi), initial=0.0)])
    for part, a, b in zip(parts, c_phi, c_psi):
        _add_coef(part, mq, 0, a)
        _add_coef(part, pq, 0, b)
    return PiecewisePowerSum.from_polys(f.breakpoints, parts)
