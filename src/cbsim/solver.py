"""Iterative coordinated beamforming via KKT fixed-point iteration.

The weighted-sum-rate problem with per-BS power budgets is attacked through
its stationarity condition: every beam satisfies

    (L + lambda * ln2 * I) v = w * G v / (1 + v^H G v + i)

where L is the beam's leakage matrix, i the co-channel interference at its
user, G = h h^H, and lambda the per-BS dual variable. Beams therefore take
the form v = beta * Gamma * h with Gamma an (approximate) inverse of
T = L + lambda*ln2*I. Three variants are provided:

  icbf      Gamma is the exact inverse (Hermitian PD solve).
  icbf_wi   Gamma is the inverse-free rank-one expression
            (I - L / (lambda*ln2 + tr L)) / (lambda*ln2), exact whenever
            rank(L) <= 1 and the working approximation otherwise.
  cb_refim  the leakage matrix is truncated to reference-user terms and
            Gamma is the exact inverse of that low-rank-plus-identity matrix,
            taken like icbf's from the leakage's eigendecomposition.

The double loop recomputes leakage matrices and one network-wide
:class:`DualEvaluator` in the outer loop and (interference, dual variables,
beam scalings, beams) in the inner loop. The per-BS duals are bisected
jointly, each BS on its own bracket, on the transmit power f, which is
non-increasing in the dual (:func:`lambda_bisection` proves it for every
Gamma). The bisection's result depends only on which side of two thresholds
each midpoint falls, so a search locates the thresholds by a few Newton
steps from the BS's previous dual, replays the bisection's arithmetic
against them, and verifies the replay with three exact evaluations of f:
about 7 evaluations instead of 30, and the bisection's duals bit for bit.
Each evaluation is a few contiguous 1-D operations on the evaluator's
flat, pole-major arrays of all triples: a sum over eigenvalue poles for
icbf and cb_refim, a closed scalar form for icbf_wi.

The loop is written once, in :func:`solve_batch`, for B independent solves
that share the network size and the config, each with its own algorithm
(say every solver at every SNR point of a group of channel draws, or every
reference count). The link state, leakages, evaluator and dual search carry
a leading batch axis, so each inner step costs one set of numpy calls for
all B solves whatever their algorithms. Per-solve state lives in arrays, the
stop tests are array comparisons, each result is bit for bit what it would
be alone, and the traces are built after the loop. :func:`solve` is B = 1.
"""
from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import NetworkConfig
from .errors import BracketError, ConfigurationError, InvalidStateError, UsageError
from .metrics import (POWER_FEASIBILITY_RTOL, bs_powers, check_active, link_state,
                      sum_rate_of_link, weighted_sum_rate)
from .network import own_links

LN2 = float(np.log(2.0))

ALGORITHMS = ("icbf", "icbf_wi", "cb_refim")
_ALGO_GAMMA = {"icbf": "direct", "icbf_wi": "sherman_morrison", "cb_refim": "direct"}
#: Gamma modes in the order :class:`DualEvaluator` and :func:`solve_batch` keep
#: their rows: the exact inverse, then the inverse-free form.
GAMMA_MODES = ("direct", "sherman_morrison")
#: :class:`DualEvaluator` arrays stored pole-major and flat, (poles, rows*N*K)
_POLE_MAJOR = ("poles", "proj", "sm_terms")

BISECT_MAX_STEPS = 200
BISECT_WIDTH_RTOL = 1e-12   # bracket width relative to the upper bound
BISECT_POWER_RTOL = 1e-6    # accepted gap between f(lambda) and Pmax
LOCATE_MAX_STEPS = 12       # Newton steps that locate lambda* per search
LOCATE_LOG_RTOL = 1e-5      # |ln(f / Pmax)| at which a BS counts as located
VERIFY_RTOL = 1e-12         # rounding margin of the verify checks, relative to Pmax


def _interference_of_link(config: NetworkConfig, link: tuple) -> np.ndarray:
    _, total, sig = link
    return (total - sig).reshape(total.shape[:-2] + (config.M, config.K, config.N))


def interference_all(h: np.ndarray, beams: np.ndarray,
                     config: NetworkConfig) -> np.ndarray:
    """Co-channel interference i_{m,k}(n) for every triple, shape (M, K, N)."""
    return _interference_of_link(config, link_state(h, beams, config))


def _q_from_link(config: NetworkConfig, link: tuple) -> np.ndarray:
    """Leakage weights q per (global user, subchannel) from a :func:`link_state`,
    shape (..., MK, N).

    q_u(n) = w_u(n) * SINR_u(n) / (1 + total received power at user u),
    where the denominator includes the user's own desired-signal term.
    Inactive users get q = 0.
    """
    _, total, sig = link
    sinr = sig / (1.0 + total - sig)
    w = config.weights.reshape(config.n_users, config.N)
    active = config.assignment.reshape(config.n_users, config.N)
    return np.where(active, w * sinr / (1.0 + total), 0.0)


def full_mask(config: NetworkConfig) -> np.ndarray:
    """Victim mask of the full leakage, shape (M, K, N, MK).

    mask[m, k, n, g] is set when beam (m, k, n) is active and g is an active
    user on subchannel n other than the beam's own user.
    """
    gids = np.arange(config.n_users)
    not_own = gids.reshape(config.M, config.K, 1, 1) != gids
    victims = config.assignment.reshape(config.n_users, config.N).T     # (N, MK)
    return config.assignment[..., None] & victims & not_own


def _victim_weights(mask: np.ndarray, q: np.ndarray) -> np.ndarray:
    """W[..., m, k, n, g] = mask[..., m, k, n, g] * q[..., g, n]."""
    return mask * np.swapaxes(q, -1, -2)[..., None, None, :, :]


def _all_leakages(h: np.ndarray, q: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Leakage matrices L[m,k,n] = sum_g W[m,k,n,g] h_{m,g}(n) h_{m,g}(n)^H with
    the victim weights W = :func:`_victim_weights`, with any leading batch
    axes of the channels h, q and mask."""
    return np.einsum("...mkng,...mgna,...mgnb->...mknab", _victim_weights(mask, q), h, h.conj())


def gamma_direct(leakage: np.ndarray, lam: float) -> np.ndarray:
    """Exact Gamma = (L + lambda*ln2*I)^{-1}, the dense reference: numpy's
    LU solve ``np.linalg.solve(T, I)``, Hermitian-symmetrized."""
    nt = leakage.shape[0]
    t = leakage + lam * LN2 * np.eye(nt)
    gamma = np.linalg.solve(t, np.eye(nt, dtype=complex))
    return 0.5 * (gamma + gamma.conj().T)


def gamma_sherman_morrison(leakage: np.ndarray, lam: float) -> np.ndarray:
    """Inverse-free Gamma: (I - L / (lambda*ln2 + tr L)) / (lambda*ln2).

    A rank-one downdate identity makes this the exact inverse whenever
    rank(L) <= 1; for higher rank it is the working approximation and is
    returned as-is. Always Hermitian positive definite, because every
    eigenvalue of L is at most tr L.
    """
    nt = leakage.shape[0]
    x = lam * LN2
    gamma = (np.eye(nt) - leakage / (x + np.trace(leakage).real)) / x
    return 0.5 * (gamma + gamma.conj().T)


def beta(h: np.ndarray, config: NetworkConfig, m: int, k: int, n: int,
         gamma: np.ndarray, interference_value: float) -> float:
    """Beam power scalar: beta^2 = [w*u - i - 1]^+ / u^2 with u = h^H Gamma h.

    beta = 0 switches the beam off. Gamma must be Hermitian PD, which makes
    u real and positive; a complex residue above 1e-10 relative flags broken
    numerical state.
    """
    check_active(config, m, k, n)
    weight = float(config.weights[m, k, n])
    own = h[m, config.user_id(m, k), n]
    u_c = np.vdot(own, gamma @ own)
    u = float(u_c.real)
    if abs(u_c.imag) > 1e-10 * max(abs(u), 1e-300):
        raise InvalidStateError(f"h^H Gamma h has a complex residue: {u_c!r}")
    if u <= 0.0:
        raise InvalidStateError(f"h^H Gamma h = {u!r} violates positive definiteness")
    num = max(weight * u - interference_value - 1.0, 0.0)
    return float(np.sqrt(num) / u)


class DualEvaluator:
    """u = h^H Gamma h, ||Gamma h||^2 and Gamma h of every triple at per-BS duals.

    Built once per leakage, i.e. once per outer iteration. Channels and
    leakages may carry one leading batch axis of B solves, which the
    evaluator folds into its BS axis: its arrays are (B*M, N, K, ...), so
    each BS's triples run in (n, k) order, and every dual search and Gamma h
    covers all the solves at once. Inactive triples have zero weight and so
    zero beta.

    ``gamma_mode`` is one Gamma mode for every solve or one per solve, the
    solves ordered as :data:`GAMMA_MODES` lists the modes, so each mode's
    rows form one contiguous block. Every array is indexed by row (the
    pole-major ones below by the triples of each row); a form's arrays are
    computed on the rows of its modes and are zero elsewhere. The
    exact-inverse mode (icbf, and cb_refim on its truncated leakage)
    eigendecomposes the leakage matrices once, L = V diag(e) V^H, after
    which, with c = V^H h and x = lambda*ln2, every dual value costs O(Nt)
    per triple:

        u = sum_i |c_i|^2 / (e_i + x),   ||Gamma h||^2 = sum_i |c_i|^2 / (e_i + x)^2

    and Gamma h = V (c / (e + x)). The inverse-free mode's
    Gamma h = (h - L h / (x + tr L)) / x = (x h + r0) / (x (x + t)), with
    t = tr L and r0 = t h - L h, gives the dual values in closed scalar form:

        u = (x H + S) / (x (x + t)),   ||Gamma h||^2 = (x (x H + 2 S) + S2) / (x (x + t))^2

    with H = ||h||^2, S = h^H r0 >= 0 and S2 = ||r0||^2 taken once per build,
    every term non-negative.

    The dual search reads these per-triple values from flat arrays laid out
    pole-major (:data:`_POLE_MAJOR`): e and |c|^2 as (Nt, rows*N*K), and
    (H, S, S2, t) as (4, rows*N*K), each triple's entries in (row, n, k)
    order. A dual value is then a few contiguous 1-D operations and one
    reduction over the short leading axis, not one inner loop per triple.
    """

    def __init__(self, h: np.ndarray, leakages: np.ndarray, config: NetworkConfig,
                 gamma_mode: str | list[str]):
        self.lead = h.shape[:-4]                                      # () or (B,)
        self.n_bs = config.M
        self.per_row = config.N * config.K                            # triples per row
        n_solves = math.prod(self.lead)
        n_rows = n_solves * config.M
        modes = [gamma_mode] * n_solves if isinstance(gamma_mode, str) else list(gamma_mode)
        for mode in modes:
            if mode not in GAMMA_MODES:
                raise ConfigurationError(f"unknown gamma mode '{mode}'")
        self.modes = np.repeat([GAMMA_MODES.index(mode) for mode in modes], config.M)
        if len(self.modes) != n_rows or np.any(np.diff(self.modes) < 0):
            raise UsageError(f"need one gamma mode or one per solve in the order "
                             f"{GAMMA_MODES}, got {modes}")
        self._find_split()
        hs = own_links(h, config).reshape(-1, config.K, config.N, config.Nt)
        self.hs = np.ascontiguousarray(hs.swapaxes(1, 2))             # own users (BM, N, K, Nt)
        own = (config.weights * config.assignment).swapaxes(1, 2)
        self.weights = np.tile(own, (n_solves, 1, 1))
        hh = np.sum(np.abs(self.hs) ** 2, axis=-1)
        self.wh = self.weights * hh                                   # w ||h||^2
        self.lam_up = np.max(self.wh, axis=(1, 2)) / LN2             # lambda_upper
        mats = leakages.reshape((-1,) + leakages.shape[-4:]).swapaxes(1, 2)
        eig, sm = slice(None, self.split), slice(self.split, None)
        if self.split < n_rows:
            lh = np.einsum("...ij,...j->...i", mats[sm], self.hs[sm])
            tr = np.einsum("...ii->...", mats[sm]).real
            r0 = tr[..., None] * self.hs[sm] - lh                     # (tr L - L) h
            s = np.einsum("...i,...i->...", self.hs[sm].conj(), r0).real
            self.lh = _on_rows(sm, lh, n_rows)
            # (H, S, S2, t) = (||h||^2, h^H r0, ||r0||^2, tr L), S >= 0 up to rounding
            terms = np.stack((hh[sm], np.maximum(s, 0.0), np.sum(np.abs(r0) ** 2, axis=-1), tr),
                             axis=-1)
            self.sm_terms = _pole_major(_on_rows(sm, terms, n_rows))
        if self.split:
            evals, vecs = np.linalg.eigh(mats[eig])
            evals = np.clip(evals, 0.0, None)                         # PSD up to rounding
            self.poles = _pole_major(_on_rows(eig, evals, n_rows))
            self.vecs = _on_rows(eig, vecs, n_rows)
            coef = np.einsum("...ij,...j->...i", vecs.conj().swapaxes(-1, -2), self.hs[eig])
            self.coef = _on_rows(eig, coef, n_rows)
            self.proj = _pole_major(_on_rows(eig, np.abs(coef) ** 2, n_rows))

    def _find_split(self) -> None:
        # rows [0, split) are direct, the rest sherman_morrison
        self.split = int(np.searchsorted(self.modes, 1))

    def _rows(self, solves: np.ndarray) -> np.ndarray:
        return (solves[:, None] * self.n_bs + np.arange(self.n_bs)).ravel()

    def _index(self, name: str, rows: np.ndarray) -> tuple[int, np.ndarray]:
        """Axis and index of the given rows in array attribute ``name``: the rows
        on axis 0, or for a pole-major array their triples on axis 1."""
        if name in _POLE_MAJOR:
            return 1, (rows[:, None] * self.per_row + np.arange(self.per_row)).ravel()
        return 0, rows

    def select(self, solves: np.ndarray) -> "DualEvaluator":
        """The evaluator of the given batch positions, in that order."""
        sub = copy.copy(self)
        rows = self._rows(solves)
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                axis, index = self._index(name, rows)
                setattr(sub, name, np.take(value, index, axis=axis))
        sub.lead = (len(solves),)
        sub._find_split()
        return sub

    def put(self, solves: np.ndarray, other: "DualEvaluator") -> None:
        """Replace the given batch positions by ``other``'s solves, in order.
        Every array attribute is indexed by BS row, so this swaps whole solves."""
        rows = self._rows(solves)
        for name, value in vars(other).items():
            if isinstance(value, np.ndarray):
                axis, index = self._index(name, rows)
                getattr(self, name)[(slice(None),) * axis + (index,)] = value

    def _residual(self, x: np.ndarray, rows: slice) -> np.ndarray:
        # Gamma h = (h - L h / (x + tr L)) / x, the direction gamma_h returns.
        # Form the residual vector itself: expanding it into terms in h and L h
        # cancels catastrophically near the dual floor when L is (close to) rank
        # one and aligned with h. u_g2 needs no such care, because its closed
        # form has only non-negative terms.
        tr = self.sm_terms[3].reshape(self.weights.shape)[rows]
        return self.hs[rows] - (1.0 / (x + tr))[..., None] * self.lh[rows]

    def u_g2(self, lam: np.ndarray, slope: bool = False) -> tuple[np.ndarray, ...]:
        """u and ||Gamma h||^2 of every triple at per-row duals, each (rows, N, K),
        and with ``slope`` also their derivatives in x = lambda*ln2.

        Computed on the flat pole-major arrays: the duals are expanded to the
        triples once, each sum over poles is one reduction over the leading
        axis (for Nt < 8 bit for bit the trailing-axis sum of every triple's
        poles), and the inverse-free rows take their closed scalar form. The
        derivatives: du/dx = -||Gamma h||^2 and d||Gamma h||^2/dx = -2 sum_i
        |c_i|^2 / (e_i + x)^3 on the exact-inverse rows, and the quotient rule
        on the closed form.
        """
        x = np.repeat(lam * LN2, self.per_row)
        u, g2 = np.empty_like(x), np.empty_like(x)
        du, dg2 = (np.empty_like(x), np.empty_like(x)) if slope else (None, None)
        split = self.split * self.per_row              # eigendecomposed triples come first
        if split:
            proj = self.proj[:, :split]
            d = self.poles[:, :split] + x[:split]
            np.add.reduce(proj / d, axis=0, out=u[:split])
            q = proj / d ** 2
            np.add.reduce(q, axis=0, out=g2[:split])
            if slope:
                np.negative(g2[:split], out=du[:split])
                q /= d
                np.add.reduce(q, axis=0, out=dg2[:split])
                dg2[:split] *= -2.0
        if split < len(x):
            x = x[split:]
            hh, s, s2, t = self.sm_terms[:, split:]
            den = x * (x + t)
            num = x * hh + s
            u[split:] = num / den
            g2[split:] = (x * (num + s) + s2) / den ** 2
            if slope:
                c = (2.0 * x + t) / den                # d ln(den)/dx
                du[split:] = hh / den - u[split:] * c
                dg2[split:] = 2.0 * (u[split:] / den - g2[split:] * c)
        out = (u, g2, du, dg2) if slope else (u, g2)
        return tuple(a.reshape(self.weights.shape) for a in out)

    def gamma_h(self, lam: np.ndarray) -> np.ndarray:
        """Gamma h of every triple at duals (..., M), shape (..., M, K, N, Nt)."""
        lam = lam.reshape(-1)
        x = (lam * LN2)[:, None, None]
        split = self.split
        parts = []
        if split:
            d = slice(None, split)
            evals = self.poles[:, :split * self.per_row].T.reshape(self.coef[d].shape)
            parts.append(np.einsum("...ij,...j->...i", self.vecs[d],
                                   self.coef[d] / (evals + x[d, ..., None])))
        if split < len(lam):
            sm = slice(split, None)
            parts.append(self._residual(x[sm], sm) / x[sm, ..., None])
        gh = (parts[0] if len(parts) == 1 else np.concatenate(parts)).swapaxes(1, 2)
        return gh.reshape(self.lead + (self.n_bs,) + gh.shape[1:])


def _on_rows(rows: slice, values: np.ndarray, n_rows: int) -> np.ndarray:
    """``values`` of the given rows as an array of all ``n_rows`` rows, zero elsewhere."""
    if len(values) == n_rows:
        return values
    out = np.zeros((n_rows,) + values.shape[1:], values.dtype)
    out[rows] = values
    return out


def _pole_major(values: np.ndarray) -> np.ndarray:
    """(rows, N, K, P) -> contiguous (P, rows*N*K), the triples in (row, n, k) order."""
    return np.ascontiguousarray(values.reshape(-1, values.shape[-1]).T)


def _betas_power(ev: DualEvaluator, lam: np.ndarray, interf: np.ndarray,
                 slope: bool = False) -> tuple[np.ndarray, ...]:
    """Squared beam scalings beta^2 of every triple at per-row duals, and each
    BS's transmit power, summed over its triples in (n, k) order; with
    ``slope`` also each BS's d power / d lambda. The power is the same float
    either way."""
    u, g2, *derivs = ev.u_g2(lam, slope)
    wu = ev.weights * u
    u2 = u ** 2
    b2 = np.maximum(wu - interf - 1.0, 0.0) / u2
    power = np.add.reduce((b2 * g2).reshape(len(lam), -1), axis=1)
    if not slope:
        return b2, power
    du, dg2 = derivs
    # d beta^2 / du = (2 (i + 1) - w u) / u^3 where the beam is on
    db2 = np.where(b2 > 0.0, du * (2.0 * (interf + 1.0) - wu) / (u2 * u), 0.0)
    return b2, power, LN2 * np.add.reduce((db2 * g2 + b2 * dg2).reshape(len(lam), -1), axis=1)


def lambda_bisection(ev: DualEvaluator, interference_map: np.ndarray, config: NetworkConfig,
                     warm: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Dual variables (..., M) and beam scalings (..., M, K, N) of every BS,
    with the evaluator's batch axis leading.

    Each BS gets the smallest lambda in [lambda_min, lambda_upper] whose
    implied transmit power f(lambda) fits the budget, exploiting that f is
    non-increasing in lambda. lambda_upper = max w ||h||^2 / ln2 over the
    BS's triples forces every beta to zero, so the bracket always contains a
    feasible point. The BSs are bisected together, each on its own bracket
    with its own stop tests; a BS that fits at lambda_min (one without active
    triples among them) keeps it. Betas are zero at inactive triples.

    The result is the bisection's, bit for bit, but f is evaluated only
    where it decides something. The bisection's path depends only on the
    class of each midpoint: over budget, fits within BISECT_POWER_RTOL, or
    fits with room; and those classes follow from two thresholds per BS,
    lambda* where f = Pmax and lambda_tol where f = Pmax (1 - rtol). So the
    search runs in three phases:

    locate   a safeguarded Newton iteration per BS (:func:`_locate`),
             started from ``warm`` (the BS's dual at the previous inner step)
             or the middle of its bracket, finds lambda*, and the slope of
             ln f there gives lambda_tol;
    replay   the bisection's own lo/hi/mid arithmetic and stop tests
             (:func:`_bisect`) take each midpoint's class from lambda* and
             lambda_tol instead of evaluating f;
    verify   three exact evaluations certify every replayed decision: f at
             the final lo is over budget, f at the smallest midpoint that
             fit with room (or at lambda_upper) has room, and a final hi
             replayed as fitting within the tolerance does (that evaluation
             also gives the betas). The first two checks keep a rounding
             margin of VERIFY_RTOL * Pmax beyond the bisection's comparison,
             so no decision they certify rests on the last bits of f.

    Why three points certify the rest: f is non-increasing, so every
    midpoint below an over-budget lo is over budget, and every midpoint above
    a point with room has room; the lo only rises, the hi only falls, and
    only the final hi can fit within the tolerance. Every decision is thus
    the same float comparison on the same :func:`_betas_power` value, or
    follows from a verified one by monotonicity. A BS whose checks fail, or
    that the Newton iteration did not locate, is searched again on its own
    solve (``ev.select``) by the same loop with every midpoint evaluated,
    which also checks that lambda_upper fits the budget. The warm start may
    change how many evaluations a search takes, never what it returns.

    Monotonicity, proved per triple where beta > 0, with x = lambda ln2,
    a = w u - i - 1 > 0 and the triple's power p = a g2 / u^2:

        dp/dx = [-U g2 (i + 1) + a (U g2 - u G)] / u^3,

    with U = -du/dx and G = -dg2/dx. In the eigenbasis of L (eigenvalues
    e_j, c = V^H h) every Gamma is diagonal with entries gamma_j(x) > 0, so
    u = sum |c_j|^2 gamma_j, g2 = sum |c_j|^2 gamma_j^2, U = sum |c_j|^2 d_j
    and G = 2 sum |c_j|^2 gamma_j d_j with d_j = -gamma_j'. For the exact
    inverse (icbf, cb_refim) gamma_j = 1 / (e_j + x) and d_j = gamma_j^2, so
    U = g2 and u G = 2 u g3 >= 2 g2^2 by Cauchy-Schwarz; hence
    dp/dx <= -w g2^2 / u^2 < 0. For icbf_wi, gamma_j = alpha_j / x +
    (1 - alpha_j) / (x + t) with t = tr L and alpha_j = 1 - e_j / t in
    [0, 1]: gamma and d are both affine in alpha, d >= gamma^2 by Jensen,
    and writing (gamma, d) in the moments A <= 1, A^2 <= B <= A of alpha
    (scaled so 1/x - 1/(x+t) = 1, z = 1/(x+t)) gives

        2 sum gamma d sum gamma - sum d sum gamma^2
          = z^4 + 4 z^3 A + z^2 (A + 2 A^2 + 3 B) + 2 z B (1 + A) + A B >= 0

    (times (sum |c_j|^2)^2), i.e. U g2 <= u G; hence dp/dx <= -g2^2 (i + 1)
    / u^3 < 0. Beams switch off continuously, so f is continuous and
    non-increasing for every Gamma mode, strictly decreasing while any beam
    is on.
    """
    interf = interference_map.swapaxes(-1, -2).reshape(ev.weights.shape)
    lam, b2 = _dual_search(ev, interf, config, warm)
    shape = ev.lead + (config.M,)
    return lam.reshape(shape), np.sqrt(b2).swapaxes(1, 2).reshape(shape + (config.K, config.N))


def _dual_search(ev: DualEvaluator, interf: np.ndarray, config: NetworkConfig,
                 warm: np.ndarray | None = None,
                 rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Flat duals and beta^2 of every row of ``ev``: the bisection located,
    replayed and verified, or, given ``rows`` (the caller's rows that ``ev``
    holds), evaluated at every midpoint."""
    pmax = config.Pmax
    tol = BISECT_POWER_RTOL * pmax
    lo = np.full(ev.lam_up.shape, config.lambda_min)
    done = _betas_power(ev, lo, interf)[1] <= pmax
    hi = np.where(done, lo, ev.lam_up)
    width = BISECT_WIDTH_RTOL * hi
    if rows is not None:
        b2, f_hi = _betas_power(ev, hi, interf)
        if np.any(f_hi > pmax):
            row = int(np.argmax(f_hi > pmax))
            raise BracketError(f"power of BS {rows[row] % config.M} of solve "
                               f"{rows[row] // config.M} at the dual upper bound exceeds "
                               f"the budget: f({hi[row]}) = {f_hi[row]}")
        done |= pmax - f_hi <= tol
        lo, hi, moved = _bisect(ev, interf, pmax, lo, hi, width, done)
        return hi, _betas_power(ev, hi, interf)[0] if moved else b2
    if done.all():
        return hi, _betas_power(ev, hi, interf)[0]
    bounds = _locate(ev, interf, pmax, lo, hi, done, warm)
    redo = ~done & np.isnan(bounds[0])          # not located
    checked = ~done & ~redo
    lo, hi, _ = _bisect(ev, interf, pmax, lo, hi, width, done | redo, bounds)
    # The smallest midpoint that fit with room (or lambda_upper, which the
    # replay took to have room without evaluating it) is the final hi, unless
    # the replay stopped on a hi within the tolerance: then it is the hi
    # before, 2 hi - lo up to rounding, and a point just below it certifies it.
    stopped = (hi > bounds[0]) & (hi < bounds[1])
    room = np.where(stopped, (2.0 * hi - lo) * (1.0 - 1e-14), hi)
    margin = VERIFY_RTOL * pmax
    f_lo = _betas_power(ev, lo, interf)[1]
    f_room = _betas_power(ev, room, interf)[1]
    b2, f_hi = _betas_power(ev, hi, interf)
    redo |= checked & ~((f_lo > pmax + margin) & (pmax - f_room > tol + margin)
                        & (~stopped | ((f_hi <= pmax) & (pmax - f_hi <= tol))))
    if redo.any():
        solves = np.unique(np.flatnonzero(redo) // ev.n_bs)
        own = ev._rows(solves)
        hi[own], b2[own] = _dual_search(ev.select(solves), interf[own], config, rows=own)
    return hi, b2


def _locate(ev: DualEvaluator, interf: np.ndarray, pmax: float, lo: np.ndarray,
            hi: np.ndarray, done: np.ndarray, warm: np.ndarray | None) -> np.ndarray:
    """Per row, (lambda*, lambda_tol): where f = Pmax, by a safeguarded Newton
    iteration, and where f = Pmax (1 - BISECT_POWER_RTOL), from the slope of
    ln f over ln lambda at lambda*. NaN for rows that are not located.

    The Newton step is taken on ln f over ln lambda, or, above the budget
    when that step would leave the bracket, on f itself (f is convex in
    lambda, so that step does not overshoot). Every iterate stays inside its
    row's bracket: the largest lambda seen with f > Pmax and the smallest
    with f <= Pmax, the latter starting at the lambda beyond which every
    beam is off. A step that would leave the bracket, or that is more than
    half the step before last, and every iterate where f = 0, give way to
    the bracket's midpoint. A row is located, and stays where it is, once
    |ln(f / Pmax)| <= LOCATE_LOG_RTOL; lambda* is then one more Newton step,
    taken without evaluating f.
    """
    # u <= ||h||^2 / x for every Gamma mode, so a beam is off, beta = 0, once
    # x >= w ||h||^2 / (1 + i): f = 0 from the largest such lambda on
    a = lo                                         # f(a) > Pmax >= f(b)
    b = np.minimum(hi, np.max(ev.wh / (1.0 + interf), axis=(1, 2)) / LN2)
    lam = 0.5 * (a + b)
    if warm is not None:
        warm = warm.reshape(lam.shape)
        lam = np.where((warm > a) & (warm < b), warm, lam)
    half1 = half2 = np.full(lam.shape, np.inf)     # halves of the last two steps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(LOCATE_MAX_STEPS):
            f, df = _betas_power(ev, lam, interf, slope=True)[1:]
            g = np.log(f / pmax)
            s = lam * df / f                       # d ln f / d ln lambda < 0
            nxt = lam * np.exp(-g / s)
            located = (np.abs(g) <= LOCATE_LOG_RTOL) | done
            if located.all():
                break
            over = f > pmax
            linear = over & (nxt >= b)
            if linear.any():
                nxt = np.where(linear, lam - (f - pmax) / df, nxt)
            a = np.where(over, lam, a)
            b = np.where(over, b, lam)
            # a Newton step must stay in the bracket and be at most half the
            # step before last, or the bracket is halved (so no cycles)
            step = np.abs(nxt - lam)
            newton = (nxt > a) & (nxt < b) & (step <= half2)
            half2 = half1
            half1 = 0.5 * np.where(newton, step, 0.5 * (b - a))
            lam = np.where(located, lam, np.where(newton, nxt, 0.5 * (a + b)))
        star = np.where(located & ~done, nxt, np.nan)
        # ln f falls by -ln(1 - rtol) between lambda* and lambda_tol
        return np.stack((star, star * np.exp(np.log1p(-BISECT_POWER_RTOL) / s)))


def _bisect(ev: DualEvaluator, interf: np.ndarray, pmax: float, lo: np.ndarray,
            hi: np.ndarray, width: np.ndarray, done: np.ndarray,
            bounds: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, bool]:
    """The bisection loop: midpoint classes from ``bounds`` (lambda*, lambda_tol)
    per row, or from f at every midpoint when ``bounds`` is None. Returns the
    final lo and hi, and whether any step was taken."""
    tol = BISECT_POWER_RTOL * pmax
    live, mid = ~done, np.empty_like(lo)
    ends = np.stack((lo, hi))                  # lo and hi move to mid under masks
    moves = np.empty(ends.shape, bool)         # over budget, fits
    within = np.empty_like(live)
    # the width test cannot pass before the widest bracket is a quarter of the
    # way down to the width: rounding moves a midpoint by far less
    span = np.min((hi - lo)[live] / width[live], initial=np.inf)
    quiet = int(np.log2(span)) - 2 if np.isfinite(span) and span > 8.0 else 0
    moved = False
    for step in range(BISECT_MAX_STEPS):
        if step >= quiet:
            live &= ends[1] - ends[0] > width
        if not live.any():
            break
        moved = True
        np.add(ends[0], ends[1], out=mid)
        mid *= 0.5                     # lies in [lambda_min, lambda_upper] for every BS
        if bounds is None:
            f_mid = _betas_power(ev, mid, interf)[1]
            np.less_equal(f_mid, pmax, out=moves[1])
            np.less_equal(pmax - f_mid, tol, out=within)
        else:
            np.greater(mid, bounds[0], out=moves[1])
            np.less(mid, bounds[1], out=within)
        moves[1] &= live
        within &= moves[1]
        np.greater(live, moves[1], out=moves[0])
        np.copyto(ends, mid, where=moves)
        np.greater(live, within, out=live)
    return ends[0], ends[1], moved


def update_beams(ev: DualEvaluator, duals: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Fresh beams v = beta * Gamma * h for every triple, zero where beta = 0.

    Returned in C order whatever the batch size: numpy's summation order
    follows the memory layout, and a solve's bits must not depend on its batch.
    """
    return np.ascontiguousarray(betas[..., None] * ev.gamma_h(duals))


@dataclass
class SolverTrace:
    """Per-iteration diagnostics of one solve.

    One entry per inner iteration in ``iteration_index``, ``sum_rates`` and
    ``bs_power_trace``; one per outer iteration in ``outer_sum_rates`` and
    ``inner_converged``. ``duals`` are the per-BS duals (M,) of the returned
    (best) beams, lambda_min where no iterate beat the start, and
    ``final_residual`` is the largest relative stationarity residual over the
    triples (:func:`stationarity_residuals`) at those beams and duals.
    """
    algo: str
    iteration_index: list[tuple[int, int]] = field(default_factory=list)
    sum_rates: list[float] = field(default_factory=list)
    bs_power_trace: list[np.ndarray] = field(default_factory=list)
    outer_sum_rates: list[float] = field(default_factory=list)
    init_sum_rate: float = 0.0
    inner_converged: list[bool] = field(default_factory=list)
    converged_outer: bool = False
    non_monotone_steps: int = 0
    duals: np.ndarray | None = None
    best_sum_rate: float = 0.0
    final_residual: float = math.nan

    @property
    def stop_reason(self) -> str:
        """Why the solve ended: "outer_tol" (outer loop converged) or "outer_cap"."""
        return "outer_tol" if self.converged_outer else "outer_cap"

    def to_csv(self, path: str | Path) -> None:
        """Columns: outer, inner, sum_rate, power_1..power_M."""
        n_bs = len(self.bs_power_trace[0]) if self.bs_power_trace else 0
        header = ["outer", "inner", "sum_rate"]
        header += [f"power_{m + 1}" for m in range(n_bs)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for (outer, inner), wsr, powers in zip(
                    self.iteration_index, self.sum_rates, self.bs_power_trace):
                row = [outer, inner, f"{wsr:.12g}"]
                row += [f"{p:.12g}" for p in powers]
                writer.writerow(row)


def solve_batch(h: np.ndarray, config: NetworkConfig, inits: np.ndarray,
                algo: str | list[str], ref_counts: int | list[int] = 1
                ) -> tuple[np.ndarray, list[SolverTrace]]:
    """Run the double-loop coordinated beamforming algorithm on B independent solves.

    The solves share ``config``. Each has its own noise-normalized channels,
    ``h[b]`` of the array h (B, M, MK, N, Nt), which carry its transmit
    SNR (``config.gamma_db`` is not read), its own initial beams in ``inits``
    (B, M, K, N, Nt), its own algorithm (``algo``: one name for all, or one
    per solve) and, for cb_refim, its own reference count (``ref_counts``: one
    for all, or one per solve).

    Outer iterations recompute the leakage matrices and the dual evaluator;
    cb_refim's reference users depend only on the channels and are selected
    once, in one pass over every cb_refim solve. Inner iterations recompute
    interference, duals, beam scalings and beams, stopping on relative sum-rate
    stagnation or the iteration caps; one link state per iterate serves all of
    them. The best iterate seen (the initializer included) is returned, so the
    result never degrades the starting point.

    Every solve still running takes one inner iteration per step: one joint
    dual search, one beam update and one link-state pass over all of them,
    whatever their algorithms. Internally the solves run in a stable order of
    their Gamma modes (:data:`GAMMA_MODES`), so each mode is one block of the
    evaluator's rows. Each solve's counters, sum rates and best iterate are
    entries of arrays, and its stop tests are array comparisons over the
    running solves: it starts its next outer iteration (leakage and
    evaluator rebuilt for it alone) when its own inner loop ends and leaves
    the batch when its outer loop ends, so it takes exactly the steps it
    would take alone. Returns the best beams (B, M, K, N, Nt) and one
    :class:`SolverTrace` per solve, both in the caller's order.

    Each step logs its values as arrays, without the stationarity residual.
    After the loop, one batched pass takes each solve's ``final_residual`` at
    its returned beams and duals, and each trace is built once from the log.
    """
    beams = np.array(inits)
    is_array = isinstance(h, np.ndarray) and h.ndim > 0
    n_solves = len(h) if is_array else len(beams)
    algos = [algo] * n_solves if isinstance(algo, str) else list(algo)
    for name in algos:
        if name not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm '{name}', expected one of {ALGORITHMS}")
    want = ((n_solves, config.M, config.n_users, config.N, config.Nt),
            (n_solves, config.M, config.K, config.N, config.Nt))
    got = h.shape if is_array else type(h).__name__
    if not n_solves or (got, beams.shape) != want:
        raise UsageError(f"need channels {want[0]} and initial beams {want[1]}, "
                         f"got {got} and {beams.shape}")
    if len(algos) != n_solves:
        raise UsageError(f"need one algorithm or {n_solves}, got {len(algos)}")
    refs = [ref_counts] * n_solves if np.ndim(ref_counts) == 0 else list(ref_counts)
    if len(refs) != n_solves:
        raise UsageError(f"need one reference count or {n_solves}, got {len(refs)}")
    powers0 = bs_powers(beams)
    over = np.any(powers0 > config.Pmax * (1.0 + POWER_FEASIBILITY_RTOL), axis=-1)
    if over.any():
        raise UsageError(f"initial beams violate the power budget: {powers0[np.argmax(over)]}")
    modes = [_ALGO_GAMMA[name] for name in algos]
    order = sorted(range(n_solves), key=lambda b: GAMMA_MODES.index(modes[b]))
    h = h[order]
    beams = beams[order]
    algos, refs, modes = ([seq[b] for b in order] for seq in (algos, refs, modes))
    masks = np.repeat(full_mask(config)[None], n_solves, axis=0)
    cb = np.flatnonzero(np.array(algos) == "cb_refim")
    if cb.size:
        from . import refim
        counts = np.array(refs)[cb]
        if counts.min() < 0:
            raise ConfigurationError(f"reference count must be >= 0, got {counts.min()}")
        masks[cb] = refim.reference_mask(h[cb], config, counts)

    link = link_state(h, beams, config)
    now = sum_rate_of_link(config, link)
    # per solve, by batch position: initial and best sum rate, best iterate, outer test
    init_wsr, best_wsr = now.tolist(), now.copy()
    best_beams, best_duals = beams, np.full((n_solves, config.M), config.lambda_min)
    converged_outer = np.zeros(n_solves, dtype=bool)
    h_all, mode_of, log = h, np.array(modes), []   # log: one tuple of arrays per step

    # live lists the running solves; every per-step array below follows its order
    live, start = np.arange(n_solves), now
    outer, inner = np.zeros((2, n_solves), dtype=int)
    fresh = np.ones(n_solves, dtype=bool)    # starting an outer iteration
    ev = duals = None                        # duals: the previous step's, a warm start
    while live.size:
        if fresh.any():
            pos = np.flatnonzero(fresh)
            sub, q = h[pos], _q_from_link(config, tuple(a[pos] for a in link))
            leakages = _all_leakages(sub, q, masks[live[pos]])
            new = DualEvaluator(sub, leakages, config, mode_of[live[pos]].tolist())
            if fresh.all():
                ev = new
            else:
                ev.put(pos, new)

        duals, betas = lambda_bisection(ev, _interference_of_link(config, link), config, duals)
        beams = update_beams(ev, duals, betas)
        link = link_state(h, beams, config)
        before, now = now, sum_rate_of_link(config, link)
        better = now > best_wsr[live]
        up = live[better]
        best_wsr[up], best_beams[up], best_duals[up] = now[better], beams[better], duals[better]
        converged = np.abs(now - before) <= config.inner_tol * np.maximum(np.abs(before), 1e-12)
        counted = inner + 1
        ended = converged | (counted == config.L_in_max)
        log.append((live, outer, inner, before, now, bs_powers(beams), ended, converged))
        # new arrays, not in-place updates: the log holds the old ones
        inner, fresh = np.where(ended, 0, counted), ended
        if ended.any():
            settled = np.abs(now - start) <= config.outer_tol * np.maximum(np.abs(start), 1e-12)
            outer, start = outer + ended, np.where(ended, now, start)
            done = ended & (settled | (outer == config.L_out_max))
            fresh = ended & ~done
            if done.any():
                converged_outer[live[done]] = settled[done]
                keep = np.flatnonzero(~done)
                live, fresh, now, start, outer, inner = (
                    a[keep] for a in (live, fresh, now, start, outer, inner))
                h, link = h[keep], tuple(a[keep] for a in link)
                ev, duals = ev.select(keep), duals[keep]
    res = _residuals_of_link(h_all, best_beams, best_duals, config,
                             link_state(h_all, best_beams, config))
    # the log grouped by solve: a stable sort keeps each solve's steps in order
    pos, *columns = (np.concatenate(c) for c in zip(*log))
    by_solve = np.argsort(pos, kind="stable")
    cuts = np.cumsum(np.bincount(pos)).tolist()
    steps = zip(*([grouped[lo:hi] for lo, hi in zip([0] + cuts, cuts)]
                  for grouped in (c[by_solve] for c in columns)))
    traces = [SolverTrace(algo=name, iteration_index=list(zip(o.tolist(), i.tolist())),
                          sum_rates=r.tolist(), bs_power_trace=list(p),
                          outer_sum_rates=r[e].tolist(), init_sum_rate=w0,
                          inner_converged=c[e].tolist(), converged_outer=conv,
                          non_monotone_steps=int(np.count_nonzero(r < b * (1.0 - 1e-12))),
                          duals=duals, best_sum_rate=best, final_residual=value)
              for name, (o, i, b, r, p, e, c), w0, conv, duals, best, value in zip(
                  algos, steps, init_wsr, converged_outer.tolist(), best_duals,
                  best_wsr.tolist(), np.max(res, axis=(-3, -2, -1)).tolist())]
    back = np.argsort(order)      # batch position of each solve in the caller's order
    return best_beams[back], [traces[b] for b in back]


def solve(h: np.ndarray, config: NetworkConfig, init: np.ndarray,
          algo: str, ref_count: int = 1) -> tuple[np.ndarray, SolverTrace]:
    """One solve of the channels h (M, MK, N, Nt): :func:`solve_batch` with B = 1."""
    beams, traces = solve_batch(h[None] if isinstance(h, np.ndarray) else h,
                                config, init[None], algo, ref_count)
    return beams[0], traces[0]


# ---------------------------------------------------------------------------
# KKT diagnostics
# ---------------------------------------------------------------------------

def lagrangian_value(h: np.ndarray, beams: np.ndarray, duals: np.ndarray,
                     config: NetworkConfig) -> float:
    """Weighted sum-rate plus the dual-weighted power slack."""
    slack = config.Pmax - bs_powers(beams)
    return weighted_sum_rate(h, beams, config) + float(np.dot(duals, slack))


def _stationarity_terms(h: np.ndarray, config: NetworkConfig,
                        link: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the stationarity equation without the dual term, each
    (..., M, K, N, Nt): the leakage term L v, and the own-link term
    w G v / (1 + total received power), from the beams' :func:`link_state`."""
    amps, total, _ = link
    weights = _victim_weights(full_mask(config), _q_from_link(config, link))
    leak = np.einsum("...mkng,...mkgn,...mgna->...mkna", weights, amps, h)
    shape = total.shape[:-2] + (config.M, config.K, config.N)
    gids = np.arange(config.n_users)
    own_amps = amps[..., gids // config.K, gids % config.K, gids, :].reshape(shape)
    own = own_links(h, config) * own_amps[..., None]
    gain = config.weights / (1.0 + total.reshape(shape))
    return leak, gain[..., None] * own


def lagrangian_gradient(h: np.ndarray, beams: np.ndarray, duals: np.ndarray,
                        config: NetworkConfig) -> np.ndarray:
    """Analytic gradient of the Lagrangian, shape (M, K, N, Nt).

    Convention: entry a holds d/dRe(v_a) + 1j * d/dIm(v_a), i.e. twice the
    conjugate Wirtinger derivative, which is what central finite differences
    of the real-valued Lagrangian reproduce component-wise.
    """
    leak, own = _stationarity_terms(h, config, link_state(h, beams, config))
    grad = (2.0 / LN2) * (own - leak) - 2.0 * duals[:, None, None, None] * beams
    return np.where(config.assignment[..., None], grad, 0.0)


def finite_difference_gradient(h: np.ndarray, beams: np.ndarray,
                               duals: np.ndarray, config: NetworkConfig,
                               step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the Lagrangian over Re/Im of each beam entry."""
    grad = np.zeros_like(beams)
    for m, k, n in zip(*np.nonzero(config.assignment)):
        for a in range(config.Nt):
            for direction in (1.0, 1.0j):
                vp = beams.copy()
                vp[m, k, n, a] += step * direction
                vm = beams.copy()
                vm[m, k, n, a] -= step * direction
                diff = (lagrangian_value(h, vp, duals, config)
                        - lagrangian_value(h, vm, duals, config))
                grad[m, k, n, a] += direction * diff / (2.0 * step)
    return grad


def stationarity_residuals(h: np.ndarray, beams: np.ndarray,
                           duals: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Relative stationarity residual per triple, shape (M, K, N).

    || (L + lambda*ln2*I) v - w G v / (1 + v^H G v + i) || / ||v||
    with L and i recomputed from the given beams; zero where the beam is off.
    """
    return _residuals_of_link(h, beams, duals, config, link_state(h, beams, config))


def _residuals_of_link(h: np.ndarray, beams: np.ndarray, duals: np.ndarray,
                       config: NetworkConfig, link: tuple) -> np.ndarray:
    leak, own = _stationarity_terms(h, config, link)
    lhs = leak + (duals * LN2)[..., None, None, None] * beams
    norm = np.linalg.norm(beams, axis=-1)
    on = config.assignment & (norm > 0.0)
    res = np.linalg.norm(lhs - own, axis=-1)
    return np.where(on, res / np.where(on, norm, 1.0), 0.0)


@dataclass
class KKTReport:
    """Residuals of the first-order optimality conditions."""
    max_power_violation: float
    min_dual: float
    max_complementary_slackness: float
    max_stationarity_residual: float
    grad_max_abs_dev: float
    grad_rel_gap: float


def kkt_report(h: np.ndarray, beams: np.ndarray, duals: np.ndarray,
               config: NetworkConfig) -> KKTReport:
    """Evaluate all first-order conditions at (beams, duals).

    Includes a cross-check of the analytic Lagrangian gradient against
    central finite differences at :func:`finite_difference_gradient`'s step.
    """
    powers = bs_powers(beams)
    violation = float(np.max(np.maximum(powers - config.Pmax, 0.0)))
    comp = float(np.max(np.abs(duals * (config.Pmax - powers))))
    res = float(np.max(stationarity_residuals(h, beams, duals, config)))
    g_an = lagrangian_gradient(h, beams, duals, config)
    g_fd = finite_difference_gradient(h, beams, duals, config)
    dev = np.abs(g_an - g_fd)
    rel = float(np.linalg.norm(g_an - g_fd) / max(np.linalg.norm(g_fd), 1e-300))
    return KKTReport(
        max_power_violation=violation,
        min_dual=float(np.min(duals)),
        max_complementary_slackness=comp,
        max_stationarity_residual=res,
        grad_max_abs_dev=float(dev.max()),
        grad_rel_gap=rel,
    )
