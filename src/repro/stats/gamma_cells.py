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
the direct kernel.

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


class _Runs:
    """Runs of cells side by side: run ``j`` holds the cells
    ``Gamma(shape[j, i], rate[j])`` with weights ``weight[j, i]``, the
    shapes stepping by 1 along the run. ``shape`` is ``(runs, rungs)``,
    or ``(1, rungs)`` when every run has the same shapes; runs of one
    rung are the direct kernel."""

    __slots__ = ("weight", "shape", "rate", "log_rate", "total", "shape_m1",
                 "log_gamma", "prefix", "suffix", "precise")

    def __init__(self, weight, shape, rate, log_gamma=None, *,
                 precise: bool = False) -> None:
        self.weight, self.shape, self.rate = weight, shape, rate
        self.log_rate = np.log(rate)
        self.total = weight.sum(axis=1)
        self.shape_m1 = shape - 1.0
        self.precise = precise
        if precise:
            # log T(a, y) = m (log1p(t) - t) - log(2π m)/2 - stirlerr(m)
            # with m = a - 1 and t = (y - m)/m: no (a - 1) log y to
            # cancel against y, so the terms keep full relative
            # precision however large a is.
            self.log_gamma = (-0.5 * np.log(2.0 * np.pi * self.shape_m1)
                              - _stirling_error(self.shape_m1))
        else:
            self.log_gamma = (sc.gammaln(shape) if log_gamma is None
                              else log_gamma)
        # The recurrence coefficients: Σ_{i<k} w_i for the lower tail
        # and Σ_{i≥k} w_i for the upper, zero at each run's first cell.
        self.prefix = np.zeros_like(weight)
        np.cumsum(weight[:, :-1], axis=1, out=self.prefix[:, 1:])
        self.suffix = np.cumsum(weight[:, ::-1], axis=1)[:, ::-1]
        self.suffix[:, 0] = 0.0

    def add_tails(self, x, log_x, lower, tail, sums) -> None:
        # Sums lane by lane, never products across lanes, so a lane's
        # value does not depend on the batch it rides in.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                         under="ignore"):
            y = x[:, None] * self.rate
            anchor = _by_tail(lower, y, sc.gammainc, self.shape[:, -1],
                              sc.gammaincc, self.shape[:, 0])
            tail += np.einsum("nr,r->n", anchor, self.total)
            # T(a, y) = exp((a - 1) log y - y - log Γ(a)) per (lane, run,
            # rung)
            if self.precise:
                terms = y[:, :, None] - self.shape_m1
                terms /= self.shape_m1
                shift = np.log1p(terms)
                shift -= terms
                shift *= self.shape_m1
                terms = shift
                terms += self.log_gamma
            else:
                terms = (log_x[:, None] + self.log_rate)[:, :, None] * self.shape_m1
                terms -= self.log_gamma
                terms -= y[:, :, None]
            np.exp(terms, out=terms)
            if self.weight.shape[1] > 1:
                recurrence = [np.einsum("nrl,rl->n", terms, coef)
                              for coef in (self.prefix, self.suffix)]
                tail += np.where(lower, *recurrence)
            # f = Σ w b T and f' = Σ w b T ((a - 1)/x - b)
            per_run = np.einsum("nrl,rl->nr", terms, self.weight)
            shape_m1 = np.broadcast_to(self.shape_m1, self.weight.shape)
            per_run_a1 = np.einsum("nrl,rl,rl->nr", terms, self.weight,
                                   shape_m1)
            sums[0] += np.einsum("nr,r->n", per_run, self.rate)
            sums[1] += np.einsum("nr,r->n", per_run_a1, self.rate)
            sums[2] += np.einsum("nr,r,r->n", per_run, self.rate, self.rate)

    def first_moment(self):
        """``(Σ w, Σ w E[X])`` over the cells."""
        return (self.total.sum(),
                np.einsum("rl,rl,r->", self.weight,
                          np.broadcast_to(self.shape, self.weight.shape),
                          1.0 / self.rate))

    def second_moment(self, scale: float) -> float:
        """``Σ w E[X²] / scale²`` over the cells."""
        inv = 1.0 / (self.rate * scale)
        return np.einsum("rl,rl,r->", self.weight,
                         np.broadcast_to(self.shape * (self.shape + 1.0),
                                         self.weight.shape), inv * inv)


class GammaCells:
    """Weighted gamma cells ``(weight, shape, rate)`` and their quantiles.

    Parameters
    ----------
    weight, shape, rate:
        Flat arrays, one entry per cell; weights need not sum to 1. If
        the cells share a rate and step their shape by 1 they form one
        ladder run (the VB2 ω marginal); otherwise each is direct.
    atom:
        Weight of a point mass at ``x = 0`` (cells whose value is 0
        surely); it adds to ``F`` and not to ``S``.
    ladders:
        Further ladder grids ``(weight, shape, rate, log_gamma)``:
        ``weight`` is ``(runs, rungs)``, ``shape`` holds the ``rungs``
        shapes stepping by 1, ``rate`` one rate per run, and
        ``log_gamma`` is ``gammaln(shape)``.
    """

    __slots__ = ("size", "runs", "atom", "_parts")

    def __init__(self, weight=(), shape=(), rate=(), *, atom: float = 0.0,
                 ladders=()) -> None:
        parts = [_Runs(w, a[None, :], r, lg[None, :]) for w, a, r, lg in ladders]
        weight = np.asarray(weight, dtype=float)
        shape = np.asarray(shape, dtype=float)
        rate = np.asarray(rate, dtype=float)
        if weight.size > 1 and np.all(rate == rate[0]) and unit_steps(shape).all():
            parts.append(_Runs(weight[None, :], shape[None, :], rate[:1],
                               precise=bool(shape[0] > 1.0)))
        elif weight.size:
            parts.append(_Runs(weight[:, None], shape[:, None], rate))
        self._parts = parts
        self.atom = atom
        self.size = sum(p.weight.size for p in parts)
        #: incomplete-gamma evaluations per lane
        self.runs = sum(p.rate.size for p in parts)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def tails(self, x: np.ndarray, lower: np.ndarray):
        """Per lane ``(tail, f, f')`` at ``x > 0``: ``tail`` is the CDF
        ``F(x)`` where ``lower`` is set and the survival ``S(x)``
        elsewhere; ``f`` is the density and ``f'`` its slope."""
        x = np.asarray(x, dtype=float)
        lower = np.broadcast_to(np.asarray(lower, dtype=bool), x.shape)
        tail = np.where(lower, self.atom, 0.0)
        # Σ w b T, Σ w b (a - 1) T and Σ w b² T: f = the first, and
        # f' = Σ w b T ((a - 1)/x - b) from the other two.
        sums = np.zeros((3, x.size))
        log_x = np.log(x)
        for part in self._parts:
            part.add_tails(x, log_x, lower, tail, sums)
        with np.errstate(over="ignore", invalid="ignore"):
            return tail, sums[0], sums[1] / x - sums[2]

    def moment_start(self, p: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """``x`` at the matching tail quantile (``F = p`` where ``lower``
        is set, ``S = p`` elsewhere) of the gamma distribution with the
        cells' mean and variance."""
        with np.errstate(all="ignore"):
            cells, first = np.sum(
                [part.first_moment() for part in self._parts], axis=0)
            total = cells + self.atom
            mean = first / total
            # E[X²] / E[X]² - 1 with every cell's moments scaled by the
            # mean first: no under/overflow however small X is. (The
            # subtraction costs digits only when X is near-deterministic,
            # and this is a starting point.)
            cv2 = sum(part.second_moment(mean) for part in self._parts) / total
            cv2 -= 1.0
            k = 1.0 / cv2
            start = mean * cv2 * np.where(
                lower, sc.gammaincinv(k, p), sc.gammainccinv(k, p)
            )
        # fmax, not maximum: a NaN start (degenerate moments) becomes
        # the floor, and the bracket logic takes over from there.
        return np.fmax(start, _TINY)

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
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
            (cell,) = self._parts
            cdf_levels = 1.0 - levels if upper else levels
            return (sc.gammaincinv(cell.shape[0, 0], cdf_levels) / cell.rate[0],
                    0, 0)
        rtol = 0.0 if negexp else 1e-10
        out = _neg_exp if negexp else _identity
        result = np.full_like(levels, np.nan)
        # Levels inside the point mass at 0 have their quantile there.
        cells = sum(part.weight.sum() for part in self._parts)
        at_zero = np.where(lower, p <= self.atom, p >= cells)
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
                # Halley on the log tail rather than the tail: far out
                # the upper tail is near log-linear in x and the lower
                # tail near log-linear in log x (F ~ x^a), so lower
                # lanes step in log x. Either way the step stays good
                # far from the root and reduces to the plain step near
                # it.
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
            # tightens past the far edge; accept an iterate once its own
            # step is far inside tolerance (the next error is smaller
            # still). That holds only inside the convergence basin, so
            # the step must also be small against x itself, and the
            # Halley and Newton steps must agree within a factor of two:
            # under ``negexp`` any two x below ~1e-11 lie within
            # tolerance in e^(-x), whether the step is a 30-fold jump
            # across a log-flat tail or one the model shrank to nothing.
            # Acceptance must not demand the iterate sit strictly inside
            # the bracket: at convergence the tail equals p in floats,
            # the step is exactly zero, and x is a bracket endpoint.
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


def _by_tail(lower, y, lower_fn, lower_shape, upper_fn, upper_shape):
    """``lower_fn(lower_shape, y)`` on the rows of lower-tail lanes and
    ``upper_fn(upper_shape, y)`` on the others."""
    if lower.all():
        return lower_fn(lower_shape, y)
    if not lower.any():
        return upper_fn(upper_shape, y)
    out = np.empty_like(y)
    out[lower] = lower_fn(lower_shape, y[lower])
    out[~lower] = upper_fn(upper_shape, y[~lower])
    return out


def _identity(v):
    return v


def _neg_exp(v):
    return np.exp(-v)


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
