"""A curvature oracle for the tests that shares no code with the jets.

:func:`brioschi_curvature` evaluates a rational 2-dimensional metric's
``fn`` on ``mpmath.mpf`` coordinates at :data:`DPS` digits, takes the
components ``E, F, G`` and their derivatives with ``mpmath.diff`` and
applies Brioschi's formula.  It is the reference for the double-double
curvature of :func:`hkgeo.geometry.gaussian_curvature` (``dps=DIGITS``),
which it must match bit for bit once rounded to float64.
"""

import mpmath

#: Working digits of the oracle: well above the 31 of a double-double.
DPS = 60


def brioschi_curvature(g, p):
    """``2K`` of the 2-dimensional metric ``g`` at the point ``p``, rounded to float64.

    ``g.fn`` must be rational in the coordinates (``+``, ``-``, ``*``,
    ``/``, integer powers), so that it evaluates on mpmath numbers.  The
    normalisation is :func:`hkgeo.geometry.gaussian_curvature`'s: twice the
    Gaussian curvature (do Carmo, *Differential Geometry of Curves and
    Surfaces*, section 4-3, for Brioschi's formula).
    """
    with mpmath.workdps(DPS):
        x = [mpmath.mpf(float(c)) for c in p]

        def d(i, j, order):  # d^order g_ij at x
            return mpmath.diff(lambda u, v: mpmath.mpf(g.fn([u, v])[i][j]), x, order)

        E, F, G = d(0, 0, (0, 0)), d(0, 1, (0, 0)), d(1, 1, (0, 0))
        Eu, Ev, Evv = d(0, 0, (1, 0)), d(0, 0, (0, 1)), d(0, 0, (0, 2))
        Fu, Fv, Fuv = d(0, 1, (1, 0)), d(0, 1, (0, 1)), d(0, 1, (1, 1))
        Gu, Gv, Guu = d(1, 1, (1, 0)), d(1, 1, (0, 1)), d(1, 1, (2, 0))
        first = mpmath.det(mpmath.matrix([
            [-Evv / 2 + Fuv - Guu / 2, Eu / 2, Fu - Ev / 2],
            [Fv - Gu / 2, E, F],
            [Gv / 2, F, G]]))
        second = mpmath.det(mpmath.matrix([
            [0, Ev / 2, Gu / 2],
            [Ev / 2, E, F],
            [Gu / 2, F, G]]))
        return float(2 * (first - second) / (E * G - F * F) ** 2)
