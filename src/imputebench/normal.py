"""Standard normal CDF, ported from Cephes (Moshier 1989).

`ndtr` follows Cephes `ndtr.c` branch for branch (it merges two branches
where that is exact), with the same rational approximations (after Cody
1969) evaluated in the same Horner order, so it returns the same doubles
as `scipy.special.ndtr`. The polynomials run vectorised in numpy; every
`exp` is libm's (`math.exp`), because numpy's own vectorised `exp` can
differ from it in the last bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr"]

_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2  # log(largest double)

# Cephes leaves each denominator's leading 1 implied (p1evl); it is written
# out here, which changes no bit, since 1.0 * x + c rounds as x + c does.
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) for x >= 8
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x, coef):
    """Horner's rule from the leading coefficient, as Cephes `polevl`."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """Cephes erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def ndtr(a):
    """Standard normal CDF of each element of `a` (float64)."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    erfc = np.zeros_like(z)  # erfc(z) for |x| >= 1; 0 once exp(-z^2) underflows
    with np.errstate(over="ignore"):
        w = -z * z
    tail = ~(z < 1.0) & ~(w < -_MAXLOG)  # NaN lands here and stays NaN
    zt = z[tail]
    e = np.fromiter(map(math.exp, w[tail].tolist()), float, zt.size)
    body = zt < 8.0
    p = np.where(body, _polevl(zt, _P), _polevl(zt, _R))
    q = np.where(body, _polevl(zt, _Q), _polevl(zt, _S))
    erfc[tail] = e * p / q
    y = 0.5 * erfc
    y = np.where(x > 0, 1.0 - y, y)
    # on 1/sqrt(2) <= |x| < 1 Cephes goes through erfc(z) = 1 - erf(z); every
    # step of that path but the last is exact (Sterbenz), so it rounds the same
    # real number as 0.5 + 0.5 erf(x), and one erf branch serves all |x| < 1
    near = z < 1.0
    y[near] = 0.5 + 0.5 * _erf(x[near])
    return y[()]
