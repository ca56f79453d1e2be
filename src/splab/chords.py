"""Planar geometry of projected chord lengths |P(c+ - a) - P(c- - a)|.

The two displaced values are c +/- 2^(1-n) e1.  The closed-form chord
comes from the law of cosines applied twice in the plane spanned by
(a - c, e1); the tests check it against the direct vector computation.
The two chord lower bounds are verified empirically: their constants are
estimated by deterministic sampling, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigurationError, SamplingError

COS_CONE_BOUND = 0.125  # |cos(angle to e1)| <= 1/8 gates the far-field bound
MIN_SAMPLES = 1000  # per scale index of an `estimate_constant` run
MAX_SCALE = 32  # largest scale index n: float64 resolves the shift 2^-n sigma on centers of size ~1


@dataclass(frozen=True)
class ChordCase:
    """One chord configuration: center c, scale index n, shift a."""

    c: tuple[float, ...]
    n: int
    a: tuple[float, ...]


def chords_vectorized(c: NDArray, n: int, a: NDArray) -> NDArray:
    """Closed-form chords for arrays of centers/shifts (shape (N, ell)).

    A stable evaluation of chord^2 = (sep^2 - (x1-x2)^2)/(x1 x2): the
    identity is factored as (sep - d)(sep + d)/(x1 x2) with
    d = x1 - x2 rewritten through x1^2 - x2^2 = 2 sep (c - a).e1, and the
    cancelling factor expanded once more; evaluated in extended precision
    so the closed form agrees with the direct vector computation to 1e-12
    absolute even for nearly aligned cases.
    """
    cl = np.asarray(c, dtype=np.longdouble)
    al = np.asarray(a, dtype=np.longdouble)
    disp = np.longdouble(2.0) ** (1 - n)
    e1 = np.zeros(cl.shape[1], dtype=np.longdouble)
    e1[0] = 1
    dp = cl + disp * e1 - al
    dm = cl - disp * e1 - al
    x1 = np.sqrt(np.einsum("ij,ij->i", dp, dp))
    x2 = np.sqrt(np.einsum("ij,ij->i", dm, dm))
    xsum = x1 + x2
    t = cl[:, 0] - al[:, 0]
    # sep -+ d = 2 disp (xsum -+ 2 t) / xsum, both factors free of squaring
    minus = 2 * disp * (xsum - 2 * t)
    plus = 2 * disp * (xsum + 2 * t)
    val2 = minus * plus / (xsum * xsum * x1 * x2)
    return np.sqrt(np.clip(val2, 0, None)).astype(float)


@dataclass(frozen=True)
class ConstantEstimate:
    lemma: str
    minimum: float
    argmin: ChordCase
    per_n: dict[int, float]


def _sample_unit_ball(rng: np.random.Generator, count: int, ell: int) -> NDArray:
    pts = rng.standard_normal((count, ell))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    radii = rng.random(count) ** (1.0 / ell)
    return pts * radii[:, None]


def check_sample_count(samples: int) -> None:
    if samples < MIN_SAMPLES:
        raise ConfigurationError(f"need at least {MIN_SAMPLES} samples, got {samples}")


def estimate_constant(
    lemma: str,
    n_range,
    samples: int,
    seed: int,
    ell: int = 2,
) -> ConstantEstimate:
    """Empirical minima of the lemma quantities over random applicable cases.

    geom1 draws the shift uniformly (in scale-free coordinates) over the
    admissible cube; geom2 draws log-uniform center distances so every
    scale of the admissible range gets sampled at every n.  Returns the
    minimum of chord (geom1) or chord * |a-c| / 2^(1-n) (geom2), with the
    arg-min case, plus the per-n minima for stability checks.
    """
    check_sample_count(samples)
    if lemma not in ("geom1", "geom2"):
        raise ConfigurationError(f"unknown lemma {lemma!r}")
    rng = np.random.default_rng(seed)
    per_n: dict[int, float] = {}
    best = np.inf
    best_case = None
    for n in n_range:
        centers = _sample_unit_ball(rng, samples, ell)
        if lemma == "geom1":
            sigma = rng.uniform(-1.0, 1.0, size=(samples, ell))
            shifts = centers + (2.0**-n) * sigma
            vals = chords_vectorized(centers, n, shifts)
            keep = np.ones(samples, dtype=bool)
        else:
            # admissible distances span [2^-n, |c| + 1); cover all scales
            lo = 2.0**-n
            hi = 2.0
            rho = np.exp(rng.uniform(np.log(lo), np.log(hi), size=samples))
            cosphi = rng.uniform(-COS_CONE_BOUND, COS_CONE_BOUND, size=samples)
            sign = rng.integers(0, 2, size=samples) * 2 - 1
            sinphi = sign * np.sqrt(1.0 - cosphi**2)
            direction = np.zeros((samples, ell))
            direction[:, 0] = cosphi
            direction[:, 1] = sinphi
            if ell > 2:
                # rotate the orthogonal part into a random plane through e1
                extra = rng.standard_normal((samples, ell - 1))
                extra /= np.linalg.norm(extra, axis=1)[:, None]
                direction[:, 1:] = sinphi[:, None] * extra
            shifts = centers + rho[:, None] * direction
            keep = np.linalg.norm(shifts, axis=1) < 1.0
            if not keep.any():
                raise SamplingError(f"no applicable geom2 sample at n={n}")
            vals = np.full(samples, np.inf)
            vals[keep] = chords_vectorized(centers[keep], n, shifts[keep]) * rho[keep] / (2.0 ** (1 - n))
        idx = int(np.argmin(vals))
        per_n[n] = float(vals[idx])
        if vals[idx] < best:
            best = float(vals[idx])
            best_case = ChordCase(tuple(map(float, centers[idx])), n,
                                  tuple(map(float, shifts[idx])))
    if best_case is None:
        raise SamplingError("no applicable sample drawn")
    return ConstantEstimate(lemma=lemma, minimum=best, argmin=best_case, per_n=per_n)
