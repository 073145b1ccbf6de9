"""Damped least-squares refinement of MBVD models.

The engine is a Levenberg-Marquardt loop over log-space parameters
[ln c0, ln r0, ln rs] + per branch [ln rm, ln fs, ln cm], where lm is
eliminated through lm = 1/((2 pi fs)^2 cm) so the branch frequency is a
direct parameter.  The residual is the complex admittance error, the
least-squares choice under complex white measurement noise.  Positivity
is free in log space; the search box, a fixed function of the seed in
which every parameter is free, is enforced by projection.  The Jacobian
is analytic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EstimationError, FitError
from .extract import ResonanceCandidate, initial_guess
from .mbvd import TWO_PI, Admittance, MbvdModel, MotionalBranch, _median, admittance_arrays
from .netparams import ComplexTrace

_R_FLOOR = 1e-3
_R_CEIL = 1e6
_LAMBDA0 = 1e-3
_LAMBDA_MAX = 1e12
_LAMBDA_MIN = 1e-12
_MAX_ITER = 200
_FTOL = 1e-10
_XTOL = 1e-10
# The significance that admits a candidate: the largest of n noise peaks is
# about sqrt(2 ln n) sigma, and was at most 5.1 sigma on 396 survey traces.
_ADMIT = 7.0


@dataclass(frozen=True)
class FitOptions:
    """Options of fit() and select_branch_count(): none, since the residual
    and the search box are fixed; both functions still take an instance."""


@dataclass(frozen=True)
class FitResult:
    """Refined model plus convergence bookkeeping.

    cost is the sum of squared residuals at the solution, residual_rms =
    sqrt(cost / nresiduals), cost_trace the accepted-step history (non-increasing).
    """

    model: MbvdModel
    cost: float
    iterations: int
    converged: bool
    residual_rms: float
    cost_trace: tuple[float, ...] = field(repr=False)


def param_names(n_branches: int) -> list[str]:
    names = ["c0", "r0", "rs"]
    for k in range(n_branches):
        names += [f"b{k}.rm", f"b{k}.fs", f"b{k}.cm"]
    return names


def _pack(model: MbvdModel) -> np.ndarray:
    tiny = 1e-300
    theta = [
        math.log(model.c0),
        math.log(max(model.r0, tiny)),
        math.log(max(model.rs, tiny)),
    ]
    for b in model.branches:
        theta += [math.log(max(b.rm, tiny)), math.log(b.fs), math.log(b.cm)]
    return np.asarray(theta)


def _unpack(theta: np.ndarray) -> tuple[float, float, float, np.ndarray, np.ndarray, np.ndarray]:
    k = (theta.size - 3) // 3
    c0, r0, rs = np.exp(theta[:3])
    rm = np.exp(theta[3 : 3 + 3 * k : 3])
    fs = np.exp(theta[4 : 4 + 3 * k : 3])
    cm = np.exp(theta[5 : 5 + 3 * k : 3])
    return float(c0), float(r0), float(rs), rm, fs, cm


def _model_from_theta(theta: np.ndarray) -> MbvdModel:
    c0, r0, rs, rm, fs, cm = _unpack(theta)
    branches = sorted(
        (MotionalBranch(rm=float(r), lm=float(l), cm=float(c))
         for r, l, c in zip(rm, _motional_l(fs, cm), cm)),
        key=lambda b: b.fs,
    )
    return MbvdModel(c0=c0, r0=r0, rs=rs, branches=tuple(branches))


def _model_params(model: MbvdModel) -> tuple[float, float, float, np.ndarray, np.ndarray, np.ndarray]:
    rm = np.array([b.rm for b in model.branches])
    fs = np.array([b.fs for b in model.branches])
    cm = np.array([b.cm for b in model.branches])
    return model.c0, model.r0, model.rs, rm, fs, cm


def _motional_l(fs: np.ndarray, cm: np.ndarray) -> np.ndarray:
    return 1.0 / ((TWO_PI * fs) ** 2 * cm)


def _search_box(trace: ComplexTrace, seed: MbvdModel) -> tuple[np.ndarray, np.ndarray]:
    """Log-space (lo, hi) box for fitting seed to trace, one row per packed
    parameter: a fixed function of the seed.

    c0 lies within x3 of the seed, each branch fs within +-10% and cm within
    x1e4; resistances lie in [1e-3, 1e6] ohm, where a resistance seeded
    below the floor (a deliberately lossless generator, say) lowers its
    floor to the seed, down to an effective zero of 1e-30, so the box holds
    the seed.  Every row must be open, 0 < lo < hi < inf in natural units,
    so every parameter is free; a seed that gives no such box (a non-finite
    c0, say) is a ValueError naming the first parameter that has none.
    """
    if not seed.branches:
        raise ValueError("seed model needs at least one motional branch")
    nparams = 3 + 3 * len(seed.branches)
    if 2 * trace.npoints < nparams:
        raise ValueError(f"{trace.npoints} points cannot constrain {nparams} parameters")
    rows = [(seed.c0 / 3.0, seed.c0 * 3.0), (seed.r0, _R_CEIL), (seed.rs, _R_CEIL)]
    for b in seed.branches:
        rows += [(b.rm, _R_CEIL), (0.9 * b.fs, 1.1 * b.fs), (b.cm / 1e4, b.cm * 1e4)]
    lo, hi = np.asarray(rows, dtype=float).T
    resistances = np.r_[1, 2, 3:nparams:3]
    lo[resistances] = np.clip(lo[resistances], 1e-30, _R_FLOOR)
    shut = np.flatnonzero(~((0.0 < lo) & (lo < hi) & (hi < np.inf)))
    if shut.size:
        i = int(shut[0])
        raise ValueError(f"seed gives {param_names(len(seed.branches))[i]} no open search box: "
                         f"[{float(lo[i])!r}, {float(hi[i])!r}]")
    return np.log(lo), np.log(hi)


def _norm(trace: ComplexTrace) -> float:
    """The residual's scale: the median measured magnitude (1 where that is
    zero or the trace is empty)."""
    return (_median(np.abs(trace.values)) or 1.0) if trace.npoints else 1.0


def _admittance(freqs: np.ndarray, params) -> Admittance:
    """The circuit at (c0, r0, rs, rm, fs, cm) on freqs."""
    c0, r0, rs, rm, fs, cm = params
    return admittance_arrays(freqs, c0, r0, rs, rm, _motional_l(fs, cm), cm)


def _residuals(adm: Admittance, trace: ComplexTrace, norm: float) -> np.ndarray:
    """[Re, Im] of (adm.y - trace.values) / norm, interleaved."""
    d = (adm.y - trace.values) / norm
    r = np.empty(2 * d.size)
    r[0::2] = d.real
    r[1::2] = d.imag
    return r


def _jacobian(adm: Admittance, params, norm: float) -> np.ndarray:
    """d(residual)/d(ln p) at params, whose admittance is adm; columns in
    packed-parameter order.

    Built column-major: the order in which numpy sums jac.T @ r follows the
    memory layout, and a row-major matrix moves the last bits of every fit.
    """
    c0, r0, rs, rm, fs, cm = params
    w, yst, yb, g, y = adm
    jw = 1j * w
    k = rm.size
    lm = _motional_l(fs, cm)
    # dY/dG for parameters inside the parallel section, dY/drs outside.
    y_sq = y * y
    dy_dg = y_sq / (g * g)
    grads = np.empty((w.size, 3 + 3 * k), dtype=complex)
    yst_sq = yst * yst
    grads[:, 0] = dy_dg * (yst_sq / (jw * c0 * c0)) * c0          # d/d ln c0
    grads[:, 1] = dy_dg * (-yst_sq) * r0                           # d/d ln r0
    grads[:, 2] = (-y_sq) * rs                                     # d/d ln rs
    for i in range(k):
        yb_sq = yb[i] * yb[i]
        dzb_dfs = -2j * w * lm[i] / fs[i]
        dzb_dcm = 1j * (-w * lm[i] / cm[i] + 1.0 / (w * cm[i] ** 2))
        grads[:, 3 + 3 * i] = dy_dg * (-yb_sq) * rm[i]
        grads[:, 4 + 3 * i] = dy_dg * (-yb_sq * dzb_dfs) * fs[i]
        grads[:, 5 + 3 * i] = dy_dg * (-yb_sq * dzb_dcm) * cm[i]

    jac = np.empty((2 * y.size, grads.shape[1]), order="F")
    jac[0::2, :] = grads.real / norm
    jac[1::2, :] = grads.imag / norm
    return jac


def residuals(model: MbvdModel, trace: ComplexTrace) -> np.ndarray:
    """Residual vector between the model and a measured trace: [Re, Im] of
    (Y_model - Y_meas) interleaved, normalized by the median measured
    magnitude."""
    return _residuals(_admittance(trace.freqs, _model_params(model)), trace, _norm(trace))


def jacobian(model: MbvdModel, trace: ComplexTrace) -> np.ndarray:
    """Analytic d(residual)/d(ln parameter) matrix.

    Columns follow param_names().  Matches 7-point central finite
    differences to better than 1e-5 relative.
    """
    params = _model_params(model)
    return _jacobian(_admittance(trace.freqs, params), params, _norm(trace))


def fit(
    trace: ComplexTrace,
    seed: MbvdModel,
    options: FitOptions | None = None,
) -> FitResult:
    """Levenberg-Marquardt refinement of seed against trace, from the seed
    clipped into _search_box's box.

    Multiplicative damping: x10 on a rejected step, /3 on an accepted
    one.  Terminates when the relative cost decrease drops below 1e-10,
    the relative step below 1e-10, or after 200 iterations.  The accepted
    cost sequence is non-increasing by construction.  Each accepted point
    keeps the admittance that scored it, and each iteration builds one
    Jacobian, from the admittance of the point it starts at.
    """
    lo, hi = _search_box(trace, seed)
    freqs = trace.freqs
    if not (freqs[0] <= seed.branches[seed.dominant_index].fs <= freqs[-1]):
        raise ValueError("trace does not span the seed's dominant resonance")
    norm = _norm(trace)

    theta = np.clip(_pack(seed), lo, hi)
    params = _unpack(theta)
    adm = _admittance(freqs, params)
    r = _residuals(adm, trace, norm)
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise FitError("cost is non-finite at the seed")

    cost_trace = [cost]
    lam = _LAMBDA0
    iterations = 0
    converged = cost < 1e-300

    while not converged and iterations < _MAX_ITER:
        iterations += 1
        jac = _jacobian(adm, params, norm)
        g = jac.T @ r
        h = jac.T @ jac
        d = np.diag(h).copy()
        d = np.maximum(d, 1e-14 * max(float(d.max(initial=0.0)), 1e-300))

        accepted = False
        while lam <= _LAMBDA_MAX:
            a = h + lam * np.diag(d)
            try:
                step = np.linalg.solve(a, -g)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(a, -g, rcond=None)
            theta_new = np.clip(theta + step, lo, hi)
            params_new = _unpack(theta_new)
            adm_new = _admittance(freqs, params_new)
            r_new = _residuals(adm_new, trace, norm)
            cost_new = float(r_new @ r_new)
            if not math.isfinite(cost_new):
                raise FitError("cost became non-finite", iteration=iterations)
            if cost_new <= cost:
                accepted = True
                lam = max(lam / 3.0, _LAMBDA_MIN)
                break
            lam *= 10.0
        if not accepted:
            break

        rel_dec = (cost - cost_new) / max(cost, 1e-300)
        step_rel = float(np.linalg.norm(theta_new - theta)) / max(
            float(np.linalg.norm(theta)), 1e-300
        )
        theta, params, adm, r, cost = theta_new, params_new, adm_new, r_new, cost_new
        cost_trace.append(cost)
        if cost < 1e-300 or rel_dec < _FTOL or step_rel < _XTOL:
            converged = True

    return FitResult(
        model=_model_from_theta(theta),
        cost=cost,
        iterations=iterations,
        converged=converged,
        residual_rms=math.sqrt(cost / r.size),
        cost_trace=tuple(cost_trace),
    )


def seed_from_strongest(
    trace: ComplexTrace, candidates: Sequence[ResonanceCandidate], k: int
) -> MbvdModel:
    """Seed model from the k candidates of largest significance (ties go to
    the lower frequency); the rest play no part in the seed."""
    ranked = sorted(candidates, key=lambda c: (-c.significance, c.fs_est))
    return initial_guess(trace, sorted(ranked[:k], key=lambda c: c.fs_est))


def select_branch_count(
    trace: ComplexTrace,
    candidates: Sequence[ResonanceCandidate],
    options: FitOptions | None = None,
) -> FitResult:
    """One fit, a branch per candidate at least 7 sigma high: the largest of n
    noise peaks is about sigma sqrt(2 ln n).  EstimationError if none is."""
    k = sum(c.significance >= _ADMIT for c in candidates)
    if not k:
        raise EstimationError("no resonance candidate clears the noise")
    return fit(trace, seed_from_strongest(trace, candidates, k), options)
