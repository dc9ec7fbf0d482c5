"""The three regularizers of Problem (5) and their closed-form optima.

Problem (5) of the paper is the regularized SDP

    minimize    Tr(𝓛 X) + (1/η) G(X)
    subject to  X ⪰ 0,  Tr(X) = 1,  X D^{1/2} 1 = 0,

and the theorem restated in Section 3.1 (from Mahoney–Orecchia [32]) says
that its exact solution *is* the output of one of the three diffusion
dynamics, for the matching choice of regularizer:

=====================  =============================  =====================
G(X)                   closed-form optimum            diffusion dynamics
=====================  =============================  =====================
generalized entropy    ``∝ exp(-η L̂)``                Heat Kernel, t = η
``Tr(X log X)``
log-determinant        ``∝ (L̂ + μI)^{-1}``            PageRank, μ = γ/(1−γ)
``−log det X``
matrix p-norm          ``∝ ((μI − L̂)_+)^{1/(p−1)}``   Lazy Walk, p = 1+1/k
``(1/p) Tr(X^p)``
=====================  =============================  =====================

All solutions commute with the deflated Laplacian ``L̂``, so each closed form
is computed in L̂'s eigenbasis; the Lagrange multiplier μ of the trace
constraint is found by a monotone scalar root-find.

Every regularizer class exposes ``value``/``gradient`` (for the generic
solver in :mod:`repro.regularization.solver`) and ``closed_form`` (the
analytic optimum used in experiments E4–E6).
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_int, check_positive, check_probability
from repro.exceptions import InvalidParameterError


def _symmetric_eigh(matrix):
    sym = (np.asarray(matrix, dtype=float) + np.asarray(matrix).T) / 2.0
    return np.linalg.eigh(sym)


def _assemble(vectors, eigenvalues):
    return (vectors * eigenvalues) @ vectors.T


class GeneralizedEntropy:
    """Negative von Neumann entropy ``G(X) = Tr(X log X)``.

    Its regularized optimum is the (trace-normalized) heat kernel — the
    first row of the paper's correspondence.
    """

    name = "generalized_entropy"
    dynamics = "heat_kernel"

    def value(self, density):
        values, _ = _symmetric_eigh(density)
        positive = values[values > 1e-300]
        return float(np.sum(positive * np.log(positive)))

    def gradient(self, density):
        values, vectors = _symmetric_eigh(density)
        clipped = np.maximum(values, 1e-300)
        return _assemble(vectors, np.log(clipped) + 1.0)

    def closed_form(self, deflated_laplacian, eta):
        """``Y* = exp(-η L̂) / Tr exp(-η L̂)``."""
        eta = check_positive(eta, "eta")
        values, vectors = _symmetric_eigh(deflated_laplacian)
        # Shift for numerical stability; the shift cancels in normalization.
        weights = np.exp(-eta * (values - values.min()))
        return _assemble(vectors, weights / weights.sum())


class LogDeterminant:
    """Log-determinant barrier ``G(X) = −log det X``.

    Its regularized optimum is the (trace-normalized) PageRank resolvent —
    the second row of the correspondence.
    """

    name = "log_determinant"
    dynamics = "pagerank"

    def value(self, density):
        values, _ = _symmetric_eigh(density)
        if np.any(values <= 0):
            return float("inf")
        return float(-np.sum(np.log(values)))

    def gradient(self, density, *, floor=1e-14):
        """Gradient ``−X^{-1}``.

        Eigenvalues are floored at ``floor`` so that iterates of first-order
        solvers that graze the boundary (where the barrier is +inf) receive a
        large-but-finite restoring gradient instead of an overflow.
        """
        values, vectors = _symmetric_eigh(density)
        if np.any(values < -1e-8):
            raise InvalidParameterError(
                "log-det gradient needs a (near-)PSD density"
            )
        return _assemble(vectors, -1.0 / np.maximum(values, floor))

    def closed_form(self, deflated_laplacian, eta):
        """``Y* = (1/η) (L̂ + μ I)^{-1}`` with μ solving ``Tr Y* = 1``.

        The trace is strictly decreasing in μ on ``(−λ_min, ∞)``, so a
        bracketed bisection finds the unique root.
        """
        eta = check_positive(eta, "eta")
        values, vectors = _symmetric_eigh(deflated_laplacian)
        lam_min = float(values.min())

        def trace_at(mu):
            return float(np.sum(1.0 / (eta * (values + mu))))

        mu = self._solve_mu(trace_at, lower_open=-lam_min)
        return _assemble(vectors, 1.0 / (eta * (values + mu)))

    @staticmethod
    def _solve_mu(trace_at, *, lower_open, tol=1e-14, max_iterations=500):
        """Bisection for ``trace_at(μ) = 1`` on ``(lower_open, ∞)``."""
        span = 1.0
        low = lower_open + 1e-12
        while trace_at(low) < 1.0:
            # Even arbitrarily close to the pole the trace is below 1 only
            # if the problem is degenerate; tighten toward the pole.
            low = lower_open + (low - lower_open) / 16.0
            if low - lower_open < 1e-300:
                raise InvalidParameterError(
                    "log-det closed form: trace constraint unreachable"
                )
        high = lower_open + span
        while trace_at(high) > 1.0:
            span *= 2.0
            high = lower_open + span
            if span > 1e18:
                raise InvalidParameterError(
                    "log-det closed form: failed to bracket μ"
                )
        for _ in range(max_iterations):
            mid = (low + high) / 2.0
            if trace_at(mid) > 1.0:
                low = mid
            else:
                high = mid
            if high - low < tol * max(1.0, abs(high)):
                break
        return (low + high) / 2.0


class MatrixPNorm:
    """Matrix p-norm penalty ``G(X) = (1/p) Tr(X^p)`` for ``p > 1``.

    Its regularized optimum is the (trace-normalized, positive-part) power of
    an affine image of the Laplacian — which for ``p = 1 + 1/k`` is the
    ``k``-step lazy random walk: the third row of the correspondence.
    """

    name = "matrix_p_norm"
    dynamics = "lazy_walk"

    def __init__(self, p):
        self.p = check_positive(p, "p")
        if self.p <= 1:
            raise InvalidParameterError(f"p must be > 1; got {p}")

    def value(self, density):
        values, _ = _symmetric_eigh(density)
        clipped = np.maximum(values, 0.0)
        return float(np.sum(clipped ** self.p) / self.p)

    def gradient(self, density):
        values, vectors = _symmetric_eigh(density)
        clipped = np.maximum(values, 0.0)
        return _assemble(vectors, clipped ** (self.p - 1.0))

    def closed_form(self, deflated_laplacian, eta):
        """``Y* = (η (μ I − L̂))_+^{1/(p−1)}`` with μ solving ``Tr Y* = 1``.

        The trace is strictly increasing in μ, so bisection applies. Negative
        parts are truncated to zero; complementary slackness holds because on
        the truncated eigendirections the constraint gradient dominates.
        """
        eta = check_positive(eta, "eta")
        values, vectors = _symmetric_eigh(deflated_laplacian)
        exponent = 1.0 / (self.p - 1.0)

        def trace_at(mu):
            positive = np.maximum(eta * (mu - values), 0.0)
            return float(np.sum(positive ** exponent))

        low = float(values.min())
        high = low + 1.0
        while trace_at(high) < 1.0:
            high = low + (high - low) * 2.0
            if high - low > 1e18:
                raise InvalidParameterError(
                    "p-norm closed form: failed to bracket μ"
                )
        for _ in range(500):
            mid = (low + high) / 2.0
            if trace_at(mid) < 1.0:
                low = mid
            else:
                high = mid
            if high - low < 1e-15 * max(1.0, abs(high)):
                break
        mu = (low + high) / 2.0
        weights = np.maximum(eta * (mu - values), 0.0) ** exponent
        if weights.sum() <= 0:
            raise InvalidParameterError("p-norm closed form degenerate")
        return _assemble(vectors, weights / weights.sum())


# ---------------------------------------------------------------------------
# Diffusion-derived density matrices (the "approximation algorithm" side).
# ---------------------------------------------------------------------------

def heat_kernel_density(sdp, t):
    """Density matrix computed by the Heat Kernel dynamics at time ``t``.

    ``X_H(t) ∝ Q exp(-t L̂) Q^T`` — the heat kernel restricted to the
    complement of the trivial eigenvector and trace-normalized.
    """
    t = check_positive(t, "t")
    values, vectors = _symmetric_eigh(sdp.deflated_laplacian)
    weights = np.exp(-t * (values - values.min()))
    deflated = _assemble(vectors, weights / weights.sum())
    return sdp.lift(deflated)


def pagerank_density(sdp, gamma):
    """Density matrix computed by the PageRank dynamics at teleport ``γ``.

    The symmetrized resolvent ``γ (γ I + (1−γ) 𝓛)^{-1}`` restricted off the
    trivial direction and trace-normalized. (Symmetrization by ``D^{±1/2}``
    turns Equation (2)'s ``R_γ`` into this form; the restriction and
    normalization are basis-independent.)
    """
    gamma = check_probability(gamma, "gamma")
    values, vectors = _symmetric_eigh(sdp.deflated_laplacian)
    weights = 1.0 / (gamma + (1.0 - gamma) * values)
    deflated = _assemble(vectors, weights / weights.sum())
    return sdp.lift(deflated)


def lazy_walk_density(sdp, alpha, num_steps):
    """Density matrix computed by ``k`` steps of the lazy walk.

    The symmetrized lazy walk is ``S_α = I − (1−α) 𝓛``; the dynamics
    computes ``S_α^k``, restricted and normalized. Requires ``α ≥ 1/2`` so
    that ``S_α ⪰ 0`` (eigenvalues ``1 − (1−α) λ`` with ``λ ≤ 2``).
    """
    alpha = check_probability(alpha, "alpha")
    num_steps = check_int(num_steps, "num_steps", minimum=1)
    if alpha < 0.5:
        raise InvalidParameterError(
            "lazy_walk_density requires alpha >= 1/2 for a PSD walk matrix"
        )
    values, vectors = _symmetric_eigh(sdp.deflated_laplacian)
    weights = (1.0 - (1.0 - alpha) * values) ** num_steps
    deflated = _assemble(vectors, weights / weights.sum())
    return sdp.lift(deflated)


# ---------------------------------------------------------------------------
# Parameter maps between aggressiveness (t, γ, k) and the SDP's η.
# ---------------------------------------------------------------------------

def eta_for_heat_kernel(t):
    """Heat kernel time ↔ SDP regularization: ``η = t`` exactly."""
    return check_positive(t, "t")


def eta_for_pagerank(sdp, gamma):
    """The η for which the log-det SDP optimum equals PageRank at ``γ``.

    With ``μ = γ / (1−γ)``, the closed form ``(1/η)(L̂ + μI)^{-1}`` has unit
    trace iff ``η = Σ_i 1 / (λ_i + μ)``.
    """
    gamma = check_probability(gamma, "gamma")
    mu = gamma / (1.0 - gamma)
    values = np.linalg.eigvalsh(sdp.deflated_laplacian)
    return float(np.sum(1.0 / (values + mu))), mu


def eta_for_lazy_walk(sdp, alpha, num_steps):
    """The (η, p) for which the p-norm SDP optimum equals ``S_α^k``.

    Matching spectra requires ``p = 1 + 1/k``, ``μ = 1/(1−α)`` and
    ``η = (1−α) / Z^{1/k}`` with ``Z = Σ_i (1 − (1−α) λ_i)^k``.
    """
    alpha = check_probability(alpha, "alpha")
    num_steps = check_int(num_steps, "num_steps", minimum=1)
    if alpha < 0.5:
        raise InvalidParameterError("alpha must be >= 1/2 (PSD walk matrix)")
    values = np.linalg.eigvalsh(sdp.deflated_laplacian)
    z = float(np.sum((1.0 - (1.0 - alpha) * values) ** num_steps))
    eta = (1.0 - alpha) / z ** (1.0 / num_steps)
    p = 1.0 + 1.0 / num_steps
    return eta, p
