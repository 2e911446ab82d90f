"""The Student t CDF and quantile at mpmath's working precision: the
reference the t kernels and the t maps are checked against."""

import mpmath


def t_cdf(nu, x) -> mpmath.mpf:
    """F(x) of the t law with ``nu`` degrees of freedom; x a float or mpf."""
    nu, x = mpmath.mpf(nu), mpmath.mpf(x)
    if mpmath.isinf(x):
        return mpmath.mpf(x > 0)
    tail = mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + x * x), regularized=True) / 2
    return tail if x < 0 else 1 - tail


def t_pdf(nu, x) -> mpmath.mpf:
    nu, x = mpmath.mpf(nu), mpmath.mpf(x)
    return (1 + x * x / nu) ** (-(nu + 1) / 2) / (mpmath.sqrt(nu) * mpmath.beta(nu / 2, 0.5))


def t_quantile(nu, p, start: float) -> mpmath.mpf:
    """F^{-1}(p) by Newton's method from ``start``, to half the working
    digits relative to max(|t|, 1): mpmath's F holds its last ones absolute,
    and near 0 they stall the steps."""
    p, t = mpmath.mpf(p), mpmath.mpf(start)
    tol = mpmath.mpf(10) ** (-(mpmath.mp.dps // 2))
    for _ in range(100):
        step = (t_cdf(nu, t) - p) / t_pdf(nu, t)
        t -= step
        if abs(step) <= tol * max(abs(t), 1):
            return t
    raise ArithmeticError(f"t quantile at nu={nu}, p={p} did not converge from {start}")
