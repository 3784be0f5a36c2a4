"""One quantile engine for weighted gamma cells.

Every VB interval the paper reports is a quantile of a gamma mixture:
the ω and β marginals of Tables 2–3 mix the per-``N`` conditionals over
``Pv(N)`` (Section 5.1), and the reliability bounds of Eq. 32 are tail
quantiles of the residual count ``D = ω c(β)``, which given a
quadrature cell ``(N, β_j)`` is ``Gamma(a_ω(N), b_ω / c(β_j))``.
:class:`GammaCells` solves ``P(X ≤ x) = q`` for any number of levels.

**Ladder runs.** VB2's ω conditionals ``Gamma(m_ω + N, φ_ω + 1)``
share one rate and step their shape by 1 along ``N`` (Eq. 16), and
``Q(a+1, y) = Q(a, y) + T(a+1, y)``, ``P(a, y) = P(a+1, y) + T(a+1, y)``
with ``T(a, y) = y^(a-1) e^(-y) / Γ(a)``. So a run's upper tail costs
one ``gammaincc`` at its lowest shape plus one ``exp`` per cell
(weighted by within-run suffix sums), and its lower tail one
``gammainc`` at its highest shape plus the same terms (prefix sums).
Both recurrences only add positive terms, and the terms are the cell
densities, so ``F'`` and ``F''`` come with them. A run of one cell is
the direct kernel. All runs lie side by side in one flat cell array,
so a sweep is one pass over the cells however many runs there are.

**The solver.** Each level starts at the quantile of the gamma with the
cells' mean and variance (VB posteriors approach normality; Hall et
al., arXiv:1202.5183) and takes Halley steps on the log of the smaller
tail: in ``log x`` for the lower tail (near a power of ``x``), in ``x``
for the upper (near log-linear). A level is done when its step is far
inside tolerance, or a sweep earlier when its last two steps show the
cubic rate with the predicted error a hundred times inside it. Every
evaluation tightens a sign bracket; a step leaving it falls back to a
search in ``log x`` (growth while the upper end is open, geometric
bisection after), which crosses the plateaus of mixtures whose modes
sit decades apart. An exhausted budget raises
:class:`~repro.exceptions.ConvergenceError`. Lanes are independent and
every sum stays within a lane, so a level's quantile is bit-identical
alone or in a batch.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError
from repro.stats import scipy_special as sc

__all__ = ["GammaCells", "unit_steps"]

#: A shape within this many ulps of a unit step continues a ladder run.
_STEP_ULPS = 4.0
#: Floor on iterates: the kernels take ``log x``.
_TINY = 1e-300


class GammaCells:
    """Weighted gamma cells ``(weight, shape, rate)`` and their quantiles.

    The cells lie in one flat array, run after run: a ladder run's cells
    share one rate and step their shape by 1; a direct cell is a run of
    one rung.

    Parameters
    ----------
    weight, shape, rate:
        Flat arrays, one entry per cell; weights need not sum to 1.
    atom:
        Weight of a point mass at ``x = 0`` (cells whose value is 0
        surely); it adds to ``F`` and not to ``S``.
    runs:
        ``(starts, prefix, suffix)``: the offset of each run and, per
        cell, the weight before it in its run and the weight from it on
        (zero at the run's first cell). By default the cells form one
        run if they share a rate and step their shape by 1 (the VB2 ω
        marginal), and each is its own run otherwise.
    log_gamma:
        ``gammaln(shape)`` per cell, when the caller has it.
    """

    __slots__ = ("size", "runs", "atom", "total", "_mean", "_cv2", "_precise",
                 "_weight", "_shape_m1", "_const", "_rate", "_wr", "_prefix",
                 "_suffix", "_first", "_last", "_run_rate", "_run_total")

    def __init__(self, weight=(), shape=(), rate=(), *, atom: float = 0.0,
                 runs=None, log_gamma=None) -> None:
        weight, shape, rate = (np.asarray(v, dtype=float)
                               for v in (weight, shape, rate))
        one_run = runs is None and weight.size > 1 and bool(
            np.all(rate == rate[0]) and unit_steps(shape).all())
        self._precise = one_run and bool(shape[0] > 1.0)
        if one_run:
            runs = (np.zeros(1, dtype=int), np.zeros_like(weight),
                    np.cumsum(weight[::-1])[::-1])
            np.cumsum(weight[:-1], out=runs[1][1:])
            runs[2][0] = 0.0
        elif runs is None:
            runs = (np.arange(weight.size), *np.zeros((2, weight.size)))
        starts, self._prefix, self._suffix = runs
        self.size, self.runs, self.atom = weight.size, starts.size, atom
        self.total = weight.sum()
        self._weight, self._rate, self._wr = weight, rate, weight * rate
        self._shape_m1 = m = shape - 1.0
        counts = np.diff(np.append(starts, weight.size))
        self._first, self._last = shape[starts], shape[starts + counts - 1]
        self._run_rate = rate[starts]
        self._run_total = np.add.reduceat(weight, starts) if weight.size else weight
        with np.errstate(all="ignore"):
            # The mean, and E[X²] / E[X]² - 1 from every cell's moments
            # scaled by the mean first: no under/overflow however small
            # X is. (The subtraction costs digits only when X is
            # near-deterministic, and it only sets the starting point.)
            scaled = shape / rate
            self._mean = np.einsum("c,c->", weight, scaled) / (self.total + atom)
            scaled /= self._mean
            self._cv2 = np.einsum("c,c,c->", weight, scaled,
                                  scaled * (1.0 + 1.0 / shape)) / (
                self.total + atom) - 1.0
        if self._precise:
            # log T(a, y) = m (log1p(t) - t) - log(2π m)/2 - stirlerr(m)
            # with m = a - 1 and t = (y - m)/m: no (a - 1) log y to
            # cancel against y, so the terms keep full relative
            # precision however large a is.
            self._const = -0.5 * np.log(2.0 * np.pi * m) - _stirling_error(m)
        else:
            # log T(a, y) = m log x + (m log b - log Γ(a)) - b x
            self._const = np.repeat(np.log(self._run_rate), counts)
            self._const *= m
            self._const -= sc.gammaln(shape) if log_gamma is None else log_gamma

    def tails(self, x: np.ndarray, lower: np.ndarray):
        """Per lane ``(tail, f, f')`` at ``x > 0``: ``tail`` is the CDF
        ``F(x)`` where ``lower`` is set and the survival ``S(x)``
        elsewhere; ``f`` is the density and ``f'`` its slope."""
        x = np.asarray(x, dtype=float)
        lower = np.broadcast_to(np.asarray(lower, dtype=bool), x.shape)
        tail = np.where(lower, self.atom, 0.0)
        sums = np.zeros((3, x.size))
        # One lane at a time, so a lane's value does not depend on the
        # batch it rides in (and the work arrays stay one lane wide).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                         under="ignore"):
            m = self._shape_m1
            terms, work = np.empty((2, self.size))
            for i in range(x.size):
                # the run anchors: P at each run's last shape, Q at its first
                y = self._run_rate * x[i]
                anchor = (sc.gammainc(self._last, y) if lower[i]
                          else sc.gammaincc(self._first, y))
                tail[i] += np.einsum("r,r->", anchor, self._run_total)
                # T(a, b x) = exp((a - 1) log(b x) - b x - log Γ(a)) per cell
                np.multiply(self._rate, x[i], out=work)
                if self._precise:
                    work -= m
                    work /= m
                    np.log1p(work, out=terms)
                    terms -= work
                    terms *= m
                else:
                    np.multiply(m, np.log(x[i]), out=terms)
                    terms -= work
                terms += self._const
                np.exp(terms, out=terms)
                tail[i] += np.einsum("c,c->", terms,
                                     self._prefix if lower[i] else self._suffix)
                # f = Σ w b T and f' = Σ w b T ((a - 1)/x - b)
                terms *= self._wr
                sums[:, i] = (np.einsum("c->", terms), np.einsum("c,c->", terms, m),
                              np.einsum("c,c->", terms, self._rate))
            return tail, sums[0], sums[1] / x - sums[2]

    def laplace(self) -> float:
        """``E[exp(-X)]``: the gamma MGF ``(1 + 1/b)^(-a)`` summed over
        the cells, plus the atom."""
        with np.errstate(divide="ignore"):
            mgf = np.log1p(1.0 / self._rate)
        mgf *= self._shape_m1 + 1.0
        np.exp(-mgf, out=mgf)
        return self.atom + float(np.einsum("c,c->", self._weight, mgf))

    def moment_start(self, p: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """``x`` at the matching tail quantile (``F = p`` where ``lower``
        is set, ``S = p`` elsewhere) of the gamma distribution with the
        cells' mean and variance."""
        with np.errstate(all="ignore"):
            k = 1.0 / self._cv2
            start = self._mean * self._cv2 * np.where(
                lower, sc.gammaincinv(k, p), sc.gammainccinv(k, p)
            )
        # fmax, not maximum: a NaN start (degenerate moments) becomes
        # the floor, and the bracket logic takes over from there.
        return np.fmax(start, _TINY)

    def quantiles(self, q, *, upper: bool = False, xtol: float = 1e-12,
                  negexp: bool = False, max_sweeps: int = 120):
        """Solve ``F(x) = q`` per level (``S(x) = q`` with ``upper``).

        Returns ``(values, sweeps, bracket_exits)``. ``values`` are the
        quantiles ``x``, accurate to ``xtol + 1e-10 |x|``; with
        ``negexp`` they are ``exp(-x)``, accurate to ``xtol`` (the
        reliability ``r = e^(-s)`` of a residual-count cell table).

        Raises
        ------
        ConvergenceError
            If a level is still open after ``max_sweeps`` evaluations.
        """
        levels = np.atleast_1d(np.asarray(q, dtype=float))
        # Work on the smaller tail: 1 - q is exact for q >= 1/2.
        lower = levels > 0.5 if upper else levels <= 0.5
        p = np.where(lower == (not upper), levels, 1.0 - levels)
        sign = np.where(lower, 1.0, -1.0)  # tail increasing (F) or not (S)
        if self.size == 1 and not (negexp or self.atom):  # one gamma
            cdf_levels = 1.0 - levels if upper else levels
            return (sc.gammaincinv(self._first[0], cdf_levels)
                    / self._run_rate[0], 0, 0)
        rtol = 0.0 if negexp else 1e-10
        out = (lambda v: np.exp(-v)) if negexp else (lambda v: v)
        result = np.full_like(levels, np.nan)
        # Levels inside the point mass at 0 have their quantile there.
        at_zero = np.where(lower, p <= self.atom, p >= self.total)
        result[at_zero] = out(0.0)
        # The open lanes: their levels, tails, iterates and brackets.
        lanes = np.flatnonzero(~at_zero)
        p, sign, lower = p[lanes], sign[lanes], lower[lanes]
        x = self.moment_start(p, lower)
        lo = np.zeros_like(x)  # the root is positive
        hi = np.full_like(x, np.inf)
        last_step = np.full_like(x, np.nan)  # previous Halley step / x
        sweeps = bracket_exits = 0
        while lanes.size:
            if sweeps == max_sweeps:
                raise ConvergenceError(
                    f"gamma-cell quantile did not converge within "
                    f"{max_sweeps} sweeps (levels {levels[lanes].tolist()})",
                    iterations=sweeps,
                )
            sweeps += 1
            tail, density, slope = self.tails(x, lower)
            below = sign * (tail - p) < 0.0  # the root sits above x
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            open_hi = np.isinf(hi)
            with np.errstate(all="ignore"):
                v_mid = out(0.5 * (lo + np.where(open_hi, lo, hi)))
                bracket_done = (np.abs(out(hi) - out(lo))
                                <= xtol + rtol * np.abs(v_mid))
                # Halley on the log tail: far out the upper tail is near
                # log-linear in x and the lower near log-linear in log x
                # (F ~ x^a), so lower lanes step in log x; near the root
                # either reduces to the plain step.
                h = np.log(tail / p)
                dh = sign * density / tail
                curvature = sign * slope / tail - dh * dh
                d1 = np.where(lower, x * dh, dh)
                d2 = np.where(lower, d1 + x * x * curvature, curvature)
                newton = -h / d1
                denom = 1.0 + newton * d2 / (2.0 * d1)
                # A Halley step more than twice the Newton step (or
                # reversed) means the local quadratic model is unreliable.
                step = np.where(denom > 0.5, newton / denom, newton)
                target = np.where(lower, x * np.exp(step), x + step)
                v_target, v_x = out(target), out(x)
            finite = np.isfinite(target)
            # Halley approaches one-sided, so the bracket alone never
            # tightens past the far edge: accept an iterate once its own
            # step is far inside tolerance. That holds only inside the
            # convergence basin, so the step must also be small against
            # x, with the Halley and Newton steps within a factor of two
            # (under ``negexp`` any two x below ~1e-11 lie within
            # tolerance, be the step a 30-fold jump across a log-flat
            # tail or one the model shrank to nothing). At convergence x
            # may be a bracket endpoint: the tail equals p in floats.
            halley = finite & (denom > 0.5) & (denom < 2.0)
            basin = ~bracket_done & halley & (np.abs(target - x) <= 1e-3 * x)
            tol = 0.05 * (xtol + rtol * np.abs(v_x))
            # Halley converges cubically: after steps d0 then d1 (relative
            # to x), the error left after d1 is about d1^4 / d0^3. A lane
            # whose two last steps show that rate, with that error a
            # hundred times inside tolerance, is done one sweep early.
            rel = np.abs(target - x) / x
            with np.errstate(all="ignore"):
                left = x * rel ** 4 / last_step ** 3
                slope_out = np.abs(v_target - v_x) / np.abs(target - x)
            cubic = (rel < 0.1 * last_step) & (
                np.where(np.isfinite(slope_out), slope_out, 1.0) * left
                <= 0.01 * tol)
            step_done = basin & ((np.abs(v_target - v_x) <= tol) | cubic)
            # A Halley step damped below an eighth of the Newton step
            # only creeps: the slope is dominated by cells turning on.
            inside = (target > lo) & (target < hi) & finite & ~(denom > 8.0)
            last_step = np.where(inside & halley, rel, np.nan)
            fallback = np.where(
                open_hi,
                np.fmax(2.0 * x, np.sqrt(x)),
                np.sqrt(np.fmax(lo, _TINY)) * np.sqrt(hi),
            )
            x = np.fmax(np.where(inside, target, fallback), _TINY)
            done = bracket_done | step_done
            if done.any():
                bracket_exits += int(np.count_nonzero(bracket_done))
                result[lanes[done]] = np.where(bracket_done, v_mid,
                                               v_target)[done]
                keep = ~done
                lanes, p, sign, lower = lanes[keep], p[keep], sign[keep], lower[keep]
                x, lo, hi = x[keep], lo[keep], hi[keep]
                last_step = last_step[keep]
        return result, sweeps, bracket_exits


def unit_steps(shape: np.ndarray) -> np.ndarray:
    """Whether each shape is one more than the one before (to a few
    ulps: ``m + N`` is computed in floats)."""
    return (np.abs(np.diff(shape) - 1.0)
            <= _STEP_ULPS * np.finfo(float).eps * shape[1:])


def _stirling_error(m: np.ndarray) -> np.ndarray:
    """``log Γ(m + 1) - (m log m - m + log(2π m)/2)`` for ``m > 0``: its
    asymptotic series from ``m = 20`` on, where the direct difference
    would cancel."""
    m = np.asarray(m, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = sc.gammaln(m + 1.0) - (m * np.log(m) - m
                                        + 0.5 * np.log(2.0 * np.pi * m))
        r = 1.0 / m
        r2 = r * r
        series = r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 * (
            1.0 / 1260.0 - r2 * (1.0 / 1680.0 - r2 * (
                1.0 / 1188.0 - r2 * (691.0 / 360360.0))))))
    return np.where(m >= 20.0, series, direct)
