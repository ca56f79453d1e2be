"""Almost retractions of the circle and the 1D blow-up construction.

An almost retraction fixes the circle outside a small cap of angular
half-width eps and sweeps the cap across the complementary arc, so the
full map has degree zero and slope of order 1/eps inside the cap.  The
counterexample glues circle-valued two-value patches around a net of
centers; after an anisotropic rescaling, support radius, energy, and
projected energy follow power laws in eps whose exponents the scan
measures.

Domain dimension is 1 (maps of an interval into the circle); the target
is the unit circle in R^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from ._pairsum import class_pair_sum
from .energy import PAIR_BUDGET, FractionalParams, check_budget, fit_log2_slope
from .errors import AssertionFailure, BudgetError, ConfigurationError, SamplingError
from .patches import FRAME_HALFWIDTH, cell_midpoints, class_matrix, collar_factor, two_bump_profile

BLEND_FRACTION = 0.05  # C^1 blend zone at each end of the cap, as a cap fraction
SLOT_FRAME_SPACING = 1 / 64  # frame lattice of one 1D copy
GLUE_MARGIN = 1.25  # headroom of the glue's upper accounting over its slot sums
NET_DENSITY = 0.1  # pair separation = NET_DENSITY * eps; net spacing twice that
XI_RADIUS = 0.3  # radius of the disk the scan's shifts fill
CAP_CENTER = np.pi  # angle of the cap every almost retraction sweeps
SCAN_CHUNK_ELEMENTS = 2**15  # angles per chunk of a scan row's shifts (bounds its arrays)


def wrap_angle(theta: NDArray) -> NDArray:
    """Wrap to (-pi, pi]."""
    out = np.mod(np.asarray(theta, dtype=float) + np.pi, 2 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


@dataclass(frozen=True)
class AlmostRetractionSpec:
    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < np.pi / 4:
            raise ConfigurationError(f"cap half-width must lie in (0, pi/4), got {self.epsilon}")


class AlmostRetraction:
    """Circle map: identity off the cap, C^1 sweep of the complement inside.

    In cap-relative angle phi the map is the identity for |phi| >= eps;
    on the cap it descends by 2*pi - 2*eps in total, via an affine core
    with linear slope blends over the outer 5% at each end so the map is
    differentiable everywhere.  Degree is zero.
    """

    def __init__(self, spec: AlmostRetractionSpec):
        self.spec = spec
        eps = spec.epsilon
        beta = BLEND_FRACTION
        self.blend_width = 2 * eps * beta
        # core slope chosen so the total cap descent is 2*eps - 2*pi
        self.core_slope = 1.0 - np.pi / (eps * (1 - beta))
        self.max_slope = abs(self.core_slope)

    def _cap_displacement(self, phi: NDArray) -> NDArray:
        """g(phi) on [-eps, eps] with g(-eps) = -eps, g(eps) = eps - 2*pi."""
        eps = self.spec.epsilon
        w = self.blend_width
        sc = self.core_slope
        t = phi + eps  # in [0, 2*eps]
        ramp_in = -eps + t + (sc - 1.0) * t**2 / (2 * w)
        top = 2 * eps - t
        ramp_out = (eps - 2 * np.pi) - top - (sc - 1.0) * top**2 / (2 * w)
        g_in = -eps + w * (1 + sc) / 2
        core = g_in + sc * (t - w)
        out = np.where(t <= w, ramp_in, np.where(t >= 2 * eps - w, ramp_out, core))
        return out

    def angle_map(self, theta: NDArray) -> NDArray:
        """Image angle of each input angle."""
        return self.cap_map(wrap_angle(np.asarray(theta, dtype=float) - CAP_CENTER))

    def cap_map(self, phi: NDArray) -> NDArray:
        """Image angle of each cap-relative angle phi = wrap_angle(theta - CAP_CENTER)."""
        inside = np.abs(phi) < self.spec.epsilon
        out = phi.copy()
        if np.any(inside):
            out[inside] = self._cap_displacement(phi[inside])
        return CAP_CENTER + out


@dataclass(frozen=True)
class RateReport:
    max_slope_eps: float
    halfcap_min_slope_eps: float


def lipschitz_rate_check(retr: AlmostRetraction) -> RateReport:
    """Finite-difference slope survey at angular step eps/100.

    Asserts max_slope * eps <= 2*pi and half-cap min_slope * eps >= 1;
    both products are eps-independent up to the additive -eps term.
    """
    epsilon = retr.spec.epsilon
    step = epsilon / 100
    theta = np.arange(0.0, 2 * np.pi, step)
    beta = retr.angle_map(theta)
    dbeta = wrap_angle(np.diff(beta, append=beta[:1] + 0.0))
    # closing increment wraps through the identity region; drop it
    slopes = np.abs(dbeta[:-1]) / step
    max_prod = float(np.max(slopes) * epsilon)
    phi_mid = wrap_angle(theta[:-1] + step / 2 - CAP_CENTER)
    halfcap = np.abs(phi_mid) <= epsilon / 2
    min_prod = float(np.min(slopes[halfcap]) * epsilon)
    if max_prod > 2 * np.pi:
        raise AssertionFailure(f"cap slope {max_prod} exceeds 2*pi / eps rate")
    if min_prod < 1.0:
        raise AssertionFailure(f"half-cap slope {min_prod} below the 1/eps rate")
    return RateReport(max_slope_eps=max_prod, halfcap_min_slope_eps=min_prod)


def degree_of(retr: AlmostRetraction) -> float:
    """Winding number from summed wrapped angle increments."""
    theta = np.linspace(0.0, 2 * np.pi, 20000, endpoint=False)
    beta = retr.angle_map(theta)
    inc = wrap_angle(np.diff(beta, append=beta[:1]))
    return float(inc.sum() / (2 * np.pi))


# ---------------------------------------------------------------------------
# The 1D counterexample construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlmostCtrexSpec:
    """Parameters of the glued construction (circle values, interval domain)."""

    params: FractionalParams
    alpha: float = 0.0     # 0 -> default (1 + min(p, 3)) / 2

    def __post_init__(self):
        p = self.params.p
        if self.params.sp >= 1.0:
            raise ConfigurationError(
                f"the support rescaling eps^(alpha/(1-sp)) needs sp < 1, got sp = {self.params.sp:.4g}"
            )
        if self.alpha == 0.0:
            object.__setattr__(self, "alpha", (1.0 + min(p, 3.0)) / 2.0)
        if self.regime_ok and not 1.0 < self.alpha < p:
            raise ConfigurationError(f"alpha must lie in (1, p), got {self.alpha}")

    @property
    def regime_ok(self) -> bool:
        """sp < ell - 1 < p, the blow-up regime (ell = 2)."""
        return self.params.sp < 1.0 < self.params.p

    def center_count(self, eps: float) -> int:
        """Net density: every arc of radius NET_DENSITY*eps contains a center."""
        return int(math.ceil(np.pi / (NET_DENSITY * eps)))

    def cluster_count(self, eps: float) -> int:
        """k = ceil(eps^(-1/s)), so k^(sp) matches eps^(-p)."""
        return int(math.ceil(eps ** (-1.0 / self.params.s)))

    def center_angles(self, eps: float) -> NDArray:
        m = self.center_count(eps)
        return 2 * np.pi * np.arange(m) / m

    def pair_half_separation(self, eps: float) -> float:
        return NET_DENSITY * eps / 2.0

    def support_scale(self, eps: float) -> float:
        """Anisotropic rescaling factor lambda = eps^(alpha/(1-sp))."""
        return eps ** (self.alpha / (1.0 - self.params.sp))


# ---------------------------------------------------------------------------
# Composite energies and the shift scan
# ---------------------------------------------------------------------------


def xi_grid() -> NDArray:
    """Uniform 21 x 21 grid on the square, filtered to the disk B_XI_RADIUS."""
    coords = np.linspace(-XI_RADIUS, XI_RADIUS, 21)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    return pts[np.einsum("ij,ij->i", pts, pts) <= XI_RADIUS**2 + 1e-15]


def check_scan_budget(spec: AlmostCtrexSpec, n_range) -> None:
    """BudgetError unless the angles `scan_row` evaluates over ``n_range`` fit ``PAIR_BUDGET`` (n <= 15 from 2).

    Row n evaluates 2 center_count(2^-n) angles per `xi_grid` shift.  The
    rows grow with n, so the count stops at the first row past the budget.
    An eps = 2^-n outside (0, pi/4) raises as `AlmostRetractionSpec` does,
    a support radius below the least normal float, whose logarithm the
    exponent fit cannot take, a ConfigurationError, and a cluster count
    eps^(-1/s) that overflows a float a BudgetError.
    """
    shifts, angles = xi_grid().shape[0], 0
    for n in n_range:
        eps = AlmostRetractionSpec(epsilon=2.0**-n).epsilon
        try:
            spec.cluster_count(eps)
        except OverflowError:
            raise BudgetError(f"cluster count eps^(-1/s) overflows at n = {n}, s = {spec.params.s}") from None
        if spec.support_scale(eps) < np.finfo(float).tiny:
            raise ConfigurationError(
                f"the support radius eps^(alpha/(1-sp)) underflows at n = {n} "
                f"(alpha/(1-sp) = {spec.alpha / (1 - spec.params.sp):.4g}); lower n_max"
            )
        angles += 2 * shifts * spec.center_count(eps)
        check_budget(angles, PAIR_BUDGET, f"almost scan up to n = {n} evaluates {{}} angles")


class AlmostModel:
    """Composite energies and closed-form accounting for the 1D construction."""

    def __init__(self, spec: AlmostCtrexSpec, workers: int = 1):
        self.spec = spec
        self.params = spec.params
        self.workers = workers
        tau, self.h0 = cell_midpoints(FRAME_HALFWIDTH, SLOT_FRAME_SPACING)
        self._frame_tau = tau[:, None]
        self._kernel_exp = 1 + self.params.sp

    def _classes(self, key) -> tuple[NDArray, NDArray]:
        """`class_matrix` of the frame lattice of one copy by ``key`` (a profile): each frame constant reads one."""
        return class_matrix(self._frame_tau, key(self._frame_tau), self._kernel_exp, self.h0, self.workers)

    @cached_property
    def _profile_classes(self) -> tuple[NDArray, NDArray]:
        return self._classes(two_bump_profile)

    @cached_property
    def plateau_kernel(self) -> float:
        """Kernel mass between the two plateau intervals of a single copy: the classes of profile +1 and -1."""
        profile, kern = self._profile_classes
        plus, minus = (np.flatnonzero(profile == v)[0] for v in (1.0, -1.0))
        return float(2.0 * kern[plus, minus])

    @cached_property
    def collar_unit_energy(self) -> float:
        """Frame energy of the unit-amplitude scalar collar profile, from its class matrix."""
        collar, kern = self._classes(collar_factor)
        return 2.0 * class_pair_sum(kern, collar, self.params.p)

    # geometry helpers ---------------------------------------------------------

    def slot_width(self, eps: float) -> float:
        return 2.0 / self.spec.center_count(eps)

    def copy_scale(self, eps: float) -> float:
        """Domain scale of one cluster copy frame."""
        k = self.spec.cluster_count(eps)
        return self.slot_width(eps) / (32 * k)

    def cluster_lower_coeff(self, eps: float) -> float:
        """Coefficient of imgdist^p in the per-slot plateau-block lower bound."""
        k = self.spec.cluster_count(eps)
        mu = self.copy_scale(eps)
        return k * mu ** (1 - self.params.sp) * self.plateau_kernel

    def copy_frame_energy(self, eps: float) -> float:
        """Circle-metric frame energy of one copy at the pair amplitude, from the profile's class matrix."""
        half = self.spec.pair_half_separation(eps)
        g, kern = self._profile_classes
        return 2.0 * class_pair_sum(kern, np.column_stack([np.cos(half * g), np.sin(half * g)]), self.params.p)

    def slot_cluster_energy(self, eps: float) -> float:
        k = self.spec.cluster_count(eps)
        mu = self.copy_scale(eps)
        return k * mu ** (1 - self.params.sp) * self.copy_frame_energy(eps)

    def slot_collar_bound(self, eps: float, deltas: NDArray) -> NDArray:
        """Angle-Lipschitz upper bound on the collar energy of a slot, per angle of ``deltas``.

        `np.float_power` takes each |delta|^p as a float's ``**`` does; the
        SIMD loop of `np.power` moves some of them by an ulp.
        """
        q = self.slot_width(eps) / (2 * FRAME_HALFWIDTH)
        powers = np.float_power(np.abs(deltas), self.params.p)
        return q ** (1 - self.params.sp) * powers * self.collar_unit_energy

    def glue_energy_upper(self, eps: float) -> float:
        """Upper accounting of the unscaled glue: slot sums with a glue margin.

        The slot terms are added one after another (`np.cumsum`), in slot order.
        """
        deltas = wrap_angle(self.spec.center_angles(eps))
        terms = self.slot_cluster_energy(eps) + self.slot_collar_bound(eps, deltas)
        return GLUE_MARGIN * float(np.cumsum(terms)[-1])

    # projected quantities -------------------------------------------------------

    def scan_row(self, n: int, shifts: NDArray) -> dict:
        """One scan row: support radius, energy bound, projected inf-energy.

        Each chunk of shifts is one (chunk, 2M) array of about
        ``SCAN_CHUNK_ELEMENTS`` angles of the M slots' lower plateau values,
        then their upper ones, after each shift.  The cap-relative angle of a
        point z shifted by xi, wrap_angle(arg(z - xi) - CAP_CENTER), is the
        angle of xi - z (CAP_CENTER = pi), which `np.arctan2` gives in
        [-pi, pi] without a wrap; the coverage check (one full pair in the
        half-cap, in the blow-up regime) and the lower bounds read it.  The
        image distance 2 |sin(d/2)| has period 2 pi in d, so the difference
        of two image angles is not wrapped either.
        """
        eps = 2.0**-n
        retr = AlmostRetraction(AlmostRetractionSpec(epsilon=eps))
        centers = self.spec.center_angles(eps)
        half = self.spec.pair_half_separation(eps)
        angles = np.concatenate([centers - half, centers + half])
        x, y = np.cos(angles), np.sin(angles)
        m = centers.shape[0]
        step = max(1, SCAN_CHUNK_ELEMENTS // angles.shape[0])
        lowers = []
        for c0 in range(0, shifts.shape[0], step):
            xi = shifts[c0:c0 + step]
            phi = np.arctan2(xi[:, 1:] - y, xi[:, :1] - x)  # cap-relative angles
            if self.spec.regime_ok:
                near = np.abs(phi) <= eps / 2
                covered = np.any(near[:, :m] & near[:, m:], axis=1)
                if not covered.all():
                    raise SamplingError(
                        f"no pair lands in the half-cap for shift {shifts[c0 + int(np.argmin(covered))]} "
                        f"at eps={eps}; increase the net density"
                    )
            mapped = retr.cap_map(phi)
            imgdist = 2.0 * np.abs(np.sin((mapped[:, m:] - mapped[:, :m]) / 2))
            lowers.append(self.cluster_lower_coeff(eps) * np.sum(imgdist**self.params.p, axis=1))
        lowers = np.concatenate(lowers)
        lam = self.spec.support_scale(eps)
        scale_pow = lam ** (1 - self.params.sp)
        best = int(np.argmin(lowers))
        return {
            "n": n,
            "eps": eps,
            "support_radius": lam,
            "energy_upper": scale_pow * self.glue_energy_upper(eps),
            "projected_inf": scale_pow * float(lowers[best]),
            "argmin_xi": tuple(float(v) for v in shifts[best]),
            "argmin_interior": bool(np.linalg.norm(shifts[best]) < XI_RADIUS - 1e-9),
            "center_count": self.spec.center_count(eps),
            "cluster_count": self.spec.cluster_count(eps),
        }


def almost_projection_scan(spec: AlmostCtrexSpec, n_range=range(2, 7), workers: int = 1) -> dict:
    """Scan the dyadic eps sequence; fit the three power laws.

    Returns rows per eps plus measured exponents (in eps): support,
    energy, and projected inf-energy, with their targets alpha/(1-sp),
    alpha-1, and alpha-p, and the scheme that ran.  `check_scan_budget` runs first.
    The scan covers every `xi_grid` shift but evaluates the mirror half
    y >= 0, so each ``argmin_xi`` has y >= 0.
    """
    check_scan_budget(spec, n_range)
    shifts = xi_grid()
    model = AlmostModel(spec, workers=workers)
    # y -> -y maps the slot pairs, xi_grid and the cap map (cap_map(-phi) = -cap_map(phi) mod 2 pi)
    # onto themselves, so a shift's lower bound is its mirror's up to rounding: the half y >= 0 runs
    rows = [model.scan_row(n, shifts[shifts[:, 1] >= 0]) for n in n_range]
    # eps = 2^-n, so each eps-exponent is minus the log2 slope against n
    support, energy, projected = (-fit_log2_slope(list(n_range), [r[key] for r in rows])
                                  for key in ("support_radius", "energy_upper", "projected_inf"))
    sp = spec.params.sp
    out = {
        "scheme": f"slot accounting over {shifts.shape[0]} xi_grid shifts",
        "rows": rows,
        "regime_ok": spec.regime_ok,
        "alpha": spec.alpha,
        "support_exponent": support,
        "support_target": spec.alpha / (1 - sp),
        "energy_exponent": energy,
        "energy_target": spec.alpha - 1.0,
        "projected_exponent": projected,
        "projected_target": spec.alpha - spec.params.p,
    }
    out["diverges"] = bool(out["projected_exponent"] < 0) and spec.regime_ok
    return out
