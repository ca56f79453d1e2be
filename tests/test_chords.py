import numpy as np
import pytest

from splab.chords import COS_CONE_BOUND, chords_vectorized, estimate_constant
from splab.energy import FractionalParams
from splab.errors import ConfigurationError
from splab.patches import PatchModel


def direct_chords(c, n, a):
    """|P(c+ - a) - P(c- - a)| from the unit vectors themselves, for (N, ell) centers and shifts."""
    e1 = np.zeros(np.shape(c)[1])
    e1[0] = 1.0
    disp = 2.0 ** (1 - n)
    dp = c + disp * e1 - a
    dm = c - disp * e1 - a
    dv = dp / np.linalg.norm(dp, axis=1)[:, None] - dm / np.linalg.norm(dm, axis=1)[:, None]
    return np.linalg.norm(dv, axis=1)


def chords(c, n, a):
    """(closed form, direct) chord of one case."""
    c, a = np.asarray([c], dtype=float), np.asarray([a], dtype=float)
    return float(chords_vectorized(c, n, a)[0]), float(direct_chords(c, n, a)[0])


def test_chord_unit_scale_perpendicular():
    c, a = (0.0, 0.0), (0.0, 1.0)
    # the displaced values (+-1, 0) lie sqrt(2) from the shift
    for sign in (1.0, -1.0):
        assert np.linalg.norm(np.array([sign, 0.0]) - a) == pytest.approx(np.sqrt(2.0))
    closed, direct = chords(c, 1, a)
    assert closed == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert abs(closed - direct) <= 1e-12


def test_chord_center_antipodal():
    closed, _ = chords((0.3, -0.2), 4, (0.3, -0.2))
    assert closed == pytest.approx(2.0, rel=1e-14)


def test_chord_quarter_scale_perpendicular():
    # both routes give 2/sqrt(5): the displaced values are (+-1/2, 0), the
    # shift is (0, 1)
    closed, direct = chords((0.0, 0.0), 2, (0.0, 1.0))
    expected = 2.0 / np.sqrt(5.0)
    assert direct == pytest.approx(expected, rel=1e-15)
    assert closed == pytest.approx(expected, rel=1e-13)
    assert abs(closed - direct) <= 1e-12


def test_closed_form_matches_direct_bulk(rng):
    n_cases = 100_000
    c = rng.uniform(-0.7, 0.7, (n_cases, 2))
    a = rng.uniform(-1.0, 1.0, (n_cases, 2))
    for n in (1, 4):
        assert np.max(np.abs(chords_vectorized(c, n, a) - direct_chords(c, n, a))) <= 1e-12


def _selected(c, n, a, p: float) -> bool:
    """Whether the layer accounting counts the patch at c for the shift a."""
    model = PatchModel(FractionalParams(s=0.4, p=p))
    return bool(model._contributes(np.subtract(a, c), 2.0**-n))


def test_geom1_gate_and_center_value():
    # a shift on the center projects the displaced values to antipodes, and
    # the near-field cube selects the patch; a shift outside the cube with
    # p > ell (cube alone) does not
    c = (0.3, -0.2)
    closed, direct = chords(c, 3, c)
    assert closed == pytest.approx(2.0, rel=1e-12)
    assert direct == pytest.approx(2.0, rel=1e-12)
    assert _selected(c, 3, c, p=2.5)
    assert not _selected((0.0, 0.0), 2, (0.5, 0.5), p=2.5)


def test_geom2_gate_and_ratio():
    # perpendicular far-field shift: in the transverse cone, outside the cube
    c, n, a = (0.0, 0.0), 2, (0.0, 1.0)
    d = np.subtract(a, c)
    assert d[0] / np.linalg.norm(d) == pytest.approx(0.0)
    assert _selected(c, n, a, p=1.5)
    assert not _selected(c, n, a, p=2.5)
    chord, _ = chords(c, n, a)
    assert chord == pytest.approx(2.0 / np.sqrt(5.0), rel=1e-12)
    # the geom2 quantity chord |a - c| / 2^(1-n) that estimate_constant minimizes
    ratio = chord * np.linalg.norm(d) / 2.0 ** (1 - n)
    assert ratio == pytest.approx(4.0 / np.sqrt(5.0), rel=1e-12)


def test_geom2_cone_gate():
    c, a = (0.0, 0.0), (0.5, 0.0)  # |cos| = 1
    d = np.subtract(a, c)
    assert abs(d[0] / np.linalg.norm(d)) == 1.0
    assert not _selected(c, 2, a, p=1.5)
    # just inside and just outside |cos| = 1/8 at distance 1/2
    for cos, inside in ((0.99 * COS_CONE_BOUND, True), (1.01 * COS_CONE_BOUND, False)):
        a = (0.5 * cos, 0.5 * np.sqrt(1.0 - cos**2))
        assert _selected(c, 2, a, p=1.5) is inside


def test_geom1_cube_corner_applicable():
    # the corner of the near-field cube, where geom1 applies: the chord stays above 1
    n = 3
    corner = (2.0**-n, 2.0**-n)
    assert chords((0.0, 0.0), n, corner)[0] > 1.0


def test_estimate_needs_enough_samples():
    with pytest.raises(ConfigurationError):
        estimate_constant("geom1", range(1, 3), 10, seed=1)


def test_estimate_unknown_lemma():
    with pytest.raises(ConfigurationError):
        estimate_constant("geom3", range(1, 3), 2000, seed=1)


def test_geom1_single_center_sample_caps_at_two():
    # the antipodal case bounds any estimate by 2
    est = estimate_constant("geom1", [2], 1000, seed=5)
    assert est.minimum <= 2.0


@pytest.mark.parametrize("lemma,floor", [("geom1", 1.5), ("geom2", 0.8)])
def test_constant_estimates_stable(lemma, floor):
    est = estimate_constant(lemma, range(1, 9), 20_000, seed=31)
    vals = list(est.per_n.values())
    assert min(vals) > floor
    assert max(vals) / min(vals) - 1.0 <= 0.10
    # the minimizing case lies where the lemma applies
    case = est.argmin
    if lemma == "geom1":
        assert np.all(np.abs(np.subtract(case.a, case.c)) <= 2.0**-case.n + 1e-15)
    else:
        d = np.subtract(case.a, case.c)
        dist = np.linalg.norm(d)
        assert abs(d[0] / dist) <= COS_CONE_BOUND and dist >= 2.0**-case.n


def test_chord_monotone_when_receding_on_diagonal():
    # with c, n fixed and the shift receding along the cube diagonal beyond
    # the near-field cube, the chord decreases
    n = 2
    ts = np.linspace(1.1, 6.0, 25) * 2.0**-n
    shifts = np.column_stack([ts, ts]) / np.sqrt(2)
    values = chords_vectorized(np.zeros_like(shifts), n, shifts)
    assert all(a > b for a, b in zip(values, values[1:]))
