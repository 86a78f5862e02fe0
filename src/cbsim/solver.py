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
            obtained by sequential rank-one updates (no dense inversion).

The double loop recomputes leakage matrices and one network-wide
:class:`DualEvaluator` in the outer loop and (interference, dual variables,
beam scalings, beams) in the inner loop; the per-BS duals are bisected
jointly, each BS on its own bracket, on the transmit power, which is
non-increasing in the dual. Each evaluation of that power is a few
contiguous 1-D operations on the evaluator's flat, pole-major arrays of all
triples: a sum over eigenvalue poles for icbf and cb_refim, a closed scalar
form for icbf_wi.

The loop is written once, in :func:`solve_batch`, for B independent solves
that share the network size and the config, each with its own algorithm
(say every solver at every SNR point of a group of channel draws, or every
reference count). The link state, leakages, evaluator and dual search carry
a leading batch axis, so each inner step costs one set of numpy calls for
all B solves whatever their algorithms; every solve keeps its own stop tests
and leaves the batch when they say so, and its result is bit for bit what it
would be alone. :func:`solve` is the B = 1 case.
"""
from __future__ import annotations

import copy
import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .config import NetworkConfig
from .errors import BracketError, ConfigurationError, InvalidStateError, UsageError
from .metrics import (bs_powers, check_active, link_state, sum_rate_of_link,
                      weighted_sum_rate)
from .network import ChannelState, own_links

LN2 = float(np.log(2.0))

ALGORITHMS = ("icbf", "icbf_wi", "cb_refim")
_ALGO_GAMMA = {"icbf": "direct", "icbf_wi": "sherman_morrison", "cb_refim": "rank_r"}
#: Gamma modes in the order :class:`DualEvaluator` and :func:`solve_batch` keep
#: their rows; direct and rank_r share the eigendecomposed form.
GAMMA_MODES = ("direct", "rank_r", "sherman_morrison")
#: :class:`DualEvaluator` arrays stored pole-major and flat, (poles, rows*N*K)
_POLE_MAJOR = ("poles", "proj", "sm_terms")

BISECT_MAX_STEPS = 200
BISECT_WIDTH_RTOL = 1e-12   # bracket width relative to the upper bound
BISECT_POWER_RTOL = 1e-6    # accepted gap between f(lambda) and Pmax


def _interference_of_link(config: NetworkConfig, link: tuple) -> np.ndarray:
    _, total, sig = link
    return (total - sig).reshape(total.shape[:-2] + (config.M, config.K, config.N))


def interference_all(channels: ChannelState, beams: np.ndarray,
                     config: NetworkConfig) -> np.ndarray:
    """Co-channel interference i_{m,k}(n) for every triple, shape (M, K, N)."""
    return _interference_of_link(config, link_state(channels, beams, config))


def interference(channels: ChannelState, beams: np.ndarray, config: NetworkConfig,
                 m: int, k: int, n: int) -> float:
    """Power user (m, k) receives on subchannel n from all other active beams."""
    check_active(config, m, k, n)
    return float(interference_all(channels, beams, config)[m, k, n])


def _q_from_link(config: NetworkConfig, link: tuple) -> np.ndarray:
    _, total, sig = link
    sinr = sig / (1.0 + total - sig)
    w = config.weights.reshape(config.n_users, config.N)
    active = config.assignment.reshape(config.n_users, config.N)
    return np.where(active, w * sinr / (1.0 + total), 0.0)


def q_coefficients(channels: ChannelState, beams: np.ndarray,
                   config: NetworkConfig) -> np.ndarray:
    """Leakage weights q per (global user, subchannel), shape (MK, N).

    q_u(n) = w_u(n) * SINR_u(n) / (1 + total received power at user u),
    where the denominator includes the user's own desired-signal term.
    Inactive users get q = 0.
    """
    return _q_from_link(config, link_state(channels, beams, config))


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


def _all_leakages(channels: ChannelState, q: np.ndarray,
                  mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Victim weights W[m,k,n,g] = mask[m,k,n,g] * q[g,n] and the leakage
    matrices L[m,k,n] = sum_g W[m,k,n,g] h_{m,g}(n) h_{m,g}(n)^H, with any
    leading batch axes of the channels, q and mask."""
    w = _victim_weights(mask, q)
    h = channels.normalized
    return w, np.einsum("...mkng,...mgna,...mgnb->...mknab", w, h, h.conj())


def leakage_full(channels: ChannelState, beams: np.ndarray, config: NetworkConfig,
                 m: int, k: int, n: int) -> np.ndarray:
    """Full (Nt, Nt) leakage matrix of beam (m, k, n).

    L = sum over every other active co-subchannel user u (all cells) of
    q_u(n) * h_{m,u}(n) h_{m,u}(n)^H -- the harm BS m causes while serving
    user k, weighted by how much each victim's rate reacts.
    """
    check_active(config, m, k, n)
    q = q_coefficients(channels, beams, config)
    return _all_leakages(channels, q, full_mask(config))[1][m, k, n]


def gamma_direct(leakage: np.ndarray, lam: float) -> np.ndarray:
    """Exact Gamma = (L + lambda*ln2*I)^{-1} via a Hermitian PD solve."""
    nt = leakage.shape[0]
    t = leakage + lam * LN2 * np.eye(nt)
    gamma = scipy.linalg.solve(t, np.eye(nt, dtype=complex), assume_a="pos")
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


def beta(channels: ChannelState, config: NetworkConfig, m: int, k: int, n: int,
         gamma: np.ndarray, interference_value: float,
         weight: float | None = None) -> float:
    """Beam power scalar: beta^2 = [w*u - i - 1]^+ / u^2 with u = h^H Gamma h.

    beta = 0 switches the beam off. Gamma must be Hermitian PD, which makes
    u real and positive; a complex residue above 1e-10 relative flags broken
    numerical state.
    """
    check_active(config, m, k, n)
    if weight is None:
        weight = float(config.weights[m, k, n])
    h = channels.normalized[m, config.user_id(m, k), n]
    u_c = np.vdot(h, gamma @ h)
    u = float(u_c.real)
    if abs(u_c.imag) > 1e-10 * max(abs(u), 1e-300):
        raise InvalidStateError(f"h^H Gamma h has a complex residue: {u_c!r}")
    if u <= 0.0:
        raise InvalidStateError(f"h^H Gamma h = {u!r} violates positive definiteness")
    num = max(weight * u - interference_value - 1.0, 0.0)
    return float(np.sqrt(num) / u)


class DualEvaluator:
    """u = h^H Gamma h, ||Gamma h||^2 and Gamma h of every triple at per-BS duals.

    Built once per leakage, i.e. once per outer iteration. Channels, victim
    weights and leakages may carry one leading batch axis of B solves, which
    the evaluator folds into its BS axis: its arrays are (B*M, N, K, ...), so
    each BS's triples run in (n, k) order, and every dual search and Gamma h
    covers all the solves at once. Inactive triples have zero weight and so
    zero beta.

    ``gamma_mode`` is one Gamma mode for every solve or one per solve, the
    solves ordered as :data:`GAMMA_MODES` lists the modes, so each mode's
    rows form one contiguous block. Every array is indexed by row (the
    pole-major ones below by the triples of each row); a form's arrays are
    computed on the rows of its modes and are zero elsewhere. The
    exact-inverse modes (direct and rank_r) eigendecompose the leakage
    matrices once, L = V diag(e) V^H, after which, with c = V^H h and
    x = lambda*ln2, every dual value costs O(Nt) per triple:

        u = sum_i |c_i|^2 / (e_i + x),   ||Gamma h||^2 = sum_i |c_i|^2 / (e_i + x)^2

    and icbf's Gamma h = V (c / (e + x)). The inverse-free mode's
    Gamma h = (h - L h / (x + tr L)) / x = (x h + r0) / (x (x + t)), with
    t = tr L and r0 = t h - L h, gives the dual values in closed scalar form:

        u = (x H + S) / (x (x + t)),   ||Gamma h||^2 = (x (x H + 2 S) + S2) / (x (x + t))^2

    with H = ||h||^2, S = h^H r0 >= 0 and S2 = ||r0||^2 taken once per build,
    every term non-negative. cb_refim's Gamma is :func:`refim.invert_rank_r`
    over the victim weights of :func:`_all_leakages`.

    The dual search reads these per-triple values from flat arrays laid out
    pole-major (:data:`_POLE_MAJOR`): e and |c|^2 as (Nt, rows*N*K), and
    (H, S, S2, t) as (4, rows*N*K), each triple's entries in (row, n, k)
    order. A dual value is then a few contiguous 1-D operations and one
    reduction over the short leading axis, not one inner loop per triple.
    """

    def __init__(self, channels: ChannelState, weights: np.ndarray,
                 leakages: np.ndarray, config: NetworkConfig, gamma_mode: str | list[str]):
        self.lead = channels.normalized.shape[:-4]                    # () or (B,)
        self.n_bs = config.M
        self.per_row = config.N * config.K                            # triples per row
        h = channels.normalized
        h = h.reshape((-1,) + h.shape[-3:]).swapaxes(1, 2)            # (BM, N, MK, Nt)
        n_rows = len(h)
        modes = ([gamma_mode] * (n_rows // config.M) if isinstance(gamma_mode, str)
                 else list(gamma_mode))
        for mode in modes:
            if mode not in GAMMA_MODES:
                raise ConfigurationError(f"unknown gamma mode '{mode}'")
        self.modes = np.repeat([GAMMA_MODES.index(mode) for mode in modes], config.M)
        if len(self.modes) != n_rows or np.any(np.diff(self.modes) < 0):
            raise UsageError(f"need one gamma mode or one per solve in the order "
                             f"{GAMMA_MODES}, got {modes}")
        self._find_blocks()
        hs = own_links(channels, config).reshape(-1, config.K, config.N, config.Nt)
        self.hs = np.ascontiguousarray(hs.swapaxes(1, 2))             # own users (BM, N, K, Nt)
        own = (config.weights * config.assignment).swapaxes(1, 2)
        self.weights = np.tile(own, (n_rows // config.M, 1, 1))
        hh = np.sum(np.abs(self.hs) ** 2, axis=-1)
        self.lam_up = np.max(self.weights * hh, axis=(1, 2)) / LN2   # lambda_upper
        mats = leakages.reshape((-1,) + leakages.shape[-4:]).swapaxes(1, 2)
        first, last = self.blocks
        eig, sm = slice(None, last), slice(last, None)
        if last < n_rows:
            lh = np.einsum("...ij,...j->...i", mats[sm], self.hs[sm])
            tr = np.einsum("...ii->...", mats[sm]).real
            r0 = tr[..., None] * self.hs[sm] - lh                     # (tr L - L) h
            s = np.einsum("...i,...i->...", self.hs[sm].conj(), r0).real
            self.lh = _on_rows(sm, lh, n_rows)
            # (H, S, S2, t) = (||h||^2, h^H r0, ||r0||^2, tr L), S >= 0 up to rounding
            terms = np.stack((hh[sm], np.maximum(s, 0.0), np.sum(np.abs(r0) ** 2, axis=-1), tr),
                             axis=-1)
            self.sm_terms = _pole_major(_on_rows(sm, terms, n_rows))
        if last:
            evals, vecs = np.linalg.eigh(mats[eig])
            evals = np.clip(evals, 0.0, None)                         # PSD up to rounding
            self.poles = _pole_major(_on_rows(eig, evals, n_rows))
            self.vecs = _on_rows(eig, vecs, n_rows)
            coef = np.einsum("...ij,...j->...i", vecs.conj().swapaxes(-1, -2), self.hs[eig])
            self.coef = _on_rows(eig, coef, n_rows)
            self.proj = _pole_major(_on_rows(eig, np.abs(coef) ** 2, n_rows))
        if first < last:   # rank_r: victim weights (BM, N, K, MK), channels (BM, N, 1, MK, Nt)
            self.victim_w = weights.reshape((-1,) + weights.shape[-3:]).swapaxes(1, 2)
            self.victims = h[:, :, None]

    def _find_blocks(self) -> None:
        # rows [0, first) are direct, [first, last) rank_r, the rest sherman_morrison
        self.blocks = tuple(np.searchsorted(self.modes, (1, 2)).tolist())

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
        sub._find_blocks()
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

    def u_g2(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u and ||Gamma h||^2 of every triple at per-row duals, each (rows, N, K).

        Computed on the flat pole-major arrays: the duals are expanded to the
        triples once, each sum over poles is one reduction over the leading
        axis (for Nt < 8 bit for bit the trailing-axis sum of every triple's
        poles), and the inverse-free rows take their closed scalar form.
        """
        x = np.repeat(lam * LN2, self.per_row)
        u, g2 = np.empty_like(x), np.empty_like(x)
        split = self.blocks[1] * self.per_row          # eigendecomposed triples come first
        if split:
            proj = self.proj[:, :split]
            d = self.poles[:, :split] + x[:split]
            np.add.reduce(proj / d, axis=0, out=u[:split])
            np.add.reduce(proj / d ** 2, axis=0, out=g2[:split])
        if split < len(x):
            x = x[split:]
            hh, s, s2, t = self.sm_terms[:, split:]
            den = x * (x + t)
            num = x * hh + s
            u[split:] = num / den
            g2[split:] = (x * (num + s) + s2) / den ** 2
        return u.reshape(self.weights.shape), g2.reshape(self.weights.shape)

    def gamma_h(self, lam: np.ndarray) -> np.ndarray:
        """Gamma h of every triple at duals (..., M), shape (..., M, K, N, Nt)."""
        lam = lam.reshape(-1)
        x = (lam * LN2)[:, None, None]
        first, last = self.blocks
        parts = []
        if first:
            d = slice(None, first)
            evals = self.poles[:, :first * self.per_row].T.reshape(self.coef[d].shape)
            parts.append(np.einsum("...ij,...j->...i", self.vecs[d],
                                   self.coef[d] / (evals + x[d, ..., None])))
        if first < last:
            from . import refim
            r = slice(first, last)
            gamma = refim.invert_rank_r(self.victim_w[r], self.victims[r], lam[r, None, None])
            parts.append(np.einsum("...ij,...j->...i", gamma, self.hs[r]))
        if last < len(lam):
            sm = slice(last, None)
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


def _betas_power(ev: DualEvaluator, lam: np.ndarray,
                 interf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared beam scalings beta^2 of every triple at per-row duals, and each
    BS's transmit power, summed over its triples in (n, k) order."""
    u, g2 = ev.u_g2(lam)
    b2 = np.maximum(ev.weights * u - interf - 1.0, 0.0) / u ** 2
    return b2, np.add.reduce((b2 * g2).reshape(len(lam), -1), axis=1)


def lambda_bisection(ev: DualEvaluator, interference_map: np.ndarray,
                     config: NetworkConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dual variables (..., M) and beam scalings (..., M, K, N) of every BS,
    with the evaluator's batch axis leading.

    Each BS gets the smallest lambda in [lambda_min, lambda_upper] whose
    implied transmit power f(lambda) fits the budget, exploiting that f is
    non-increasing in lambda. lambda_upper = max w ||h||^2 / ln2 over the
    BS's triples forces every beta to zero, so the bracket always contains a
    feasible point. The BSs are bisected together, each on its own bracket
    with its own stop tests; a BS that fits at lambda_min (one without active
    triples among them) keeps it. A step tracks powers only; the betas are
    taken once, at the final duals. Betas are zero at inactive triples.
    """
    interf = interference_map.swapaxes(-1, -2).reshape(ev.weights.shape)
    pmax = config.Pmax
    lo = np.full(ev.lam_up.shape, config.lambda_min)
    done = _betas_power(ev, lo, interf)[1] <= pmax
    hi = lam_up = np.where(done, lo, ev.lam_up)
    b2, f_hi = _betas_power(ev, hi, interf)
    if np.any(f_hi > pmax):
        row = int(np.argmax(f_hi > pmax))
        where = f"BS {row % config.M}" + (f" of solve {row // config.M}" if ev.lead else "")
        raise BracketError(f"power of {where} at the dual upper bound exceeds the "
                           f"budget: f({hi[row]}) = {f_hi[row]}")

    width = BISECT_WIDTH_RTOL * lam_up
    moved = False
    for _ in range(BISECT_MAX_STEPS):
        done |= hi - lo <= width
        done |= pmax - f_hi <= BISECT_POWER_RTOL * pmax
        if done.all():
            break
        moved = True
        mid = 0.5 * (lo + hi)          # lies in [lambda_min, lambda_upper] for every BS
        f_mid = _betas_power(ev, mid, interf)[1]
        fits = ~done & (f_mid <= pmax)
        lo = np.where(done | fits, lo, mid)
        hi = np.where(fits, mid, hi)
        f_hi = np.where(fits, f_mid, f_hi)
    if moved:
        b2 = _betas_power(ev, hi, interf)[0]
    shape = ev.lead + (config.M,)
    return hi.reshape(shape), np.sqrt(b2).swapaxes(1, 2).reshape(shape + (config.K, config.N))


def update_beams(ev: DualEvaluator, duals: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Fresh beams v = beta * Gamma * h for every triple, zero where beta = 0.

    Returned in C order whatever the batch size: numpy's summation order
    follows the memory layout, and a solve's bits must not depend on its batch.
    """
    return np.ascontiguousarray(betas[..., None] * ev.gamma_h(duals))


@dataclass
class SolverTrace:
    """Per-iteration diagnostics of one solve."""
    algo: str
    iteration_index: list[tuple[int, int]] = field(default_factory=list)
    sum_rates: list[float] = field(default_factory=list)
    bs_power_trace: list[np.ndarray] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    outer_sum_rates: list[float] = field(default_factory=list)
    init_sum_rate: float = 0.0
    inner_converged: list[bool] = field(default_factory=list)
    converged_outer: bool = False
    non_monotone_steps: int = 0
    duals: np.ndarray | None = None
    best_sum_rate: float = 0.0

    @property
    def stop_reason(self) -> str:
        """Why the solve ended: "outer_tol" (outer loop converged) or "outer_cap"."""
        return "outer_tol" if self.converged_outer else "outer_cap"

    def to_csv(self, path: str | Path) -> None:
        """Columns: outer, inner, sum_rate, power_1..power_M, residual."""
        n_bs = len(self.bs_power_trace[0]) if self.bs_power_trace else 0
        header = ["outer", "inner", "sum_rate"]
        header += [f"power_{m + 1}" for m in range(n_bs)]
        header += ["residual"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for (outer, inner), wsr, powers, res in zip(
                    self.iteration_index, self.sum_rates,
                    self.bs_power_trace, self.residuals):
                row = [outer, inner, f"{wsr:.12g}"]
                row += [f"{p:.12g}" for p in powers]
                row.append(f"{res:.6g}")
                writer.writerow(row)


def _take(channels: ChannelState, link: tuple,
          solves: np.ndarray) -> tuple[ChannelState, tuple]:
    """The batched channels and link state of the given batch positions."""
    sub = ChannelState(normalized=channels.normalized[solves],
                       n_coordinated=channels.n_coordinated)
    return sub, tuple(a[solves] for a in link)


def solve_batch(channels: list[ChannelState], config: NetworkConfig, inits: np.ndarray,
                algo: str | list[str], ref_counts: int | list[int] = 1
                ) -> tuple[np.ndarray, list[SolverTrace]]:
    """Run the double-loop coordinated beamforming algorithm on B independent solves.

    The solves share ``config``. Each has its own noise-normalized channels,
    which carry its transmit SNR (``config.gamma_db`` is not read), its own
    initial beams in ``inits`` (B, M, K, N, Nt), its own algorithm (``algo``:
    one name for all, or one per solve) and, for cb_refim, its own reference
    count (``ref_counts``: one for all, or one per solve).

    Outer iterations recompute the leakage matrices and the dual evaluator;
    cb_refim's reference users depend only on the channels and are selected
    once per channel state. Inner iterations recompute interference, duals, beam
    scalings and beams, stopping on relative sum-rate stagnation or the
    iteration caps; one link state per iterate serves all of them. The best
    iterate seen (the initializer included) is returned, so the result never
    degrades the starting point.

    Every solve still running takes one inner iteration per step: one joint
    dual search, one beam update and one link-state pass over all of them,
    whatever their algorithms. Internally the solves run in a stable order of
    their Gamma modes (:data:`GAMMA_MODES`), so each mode is one block of the
    evaluator's rows. Each solve keeps its own counters, stop tests and best
    iterate, starts its next outer iteration (leakage and evaluator rebuilt
    for it alone) when its own inner loop ends, and leaves the batch when its
    outer loop ends, so it takes exactly the steps it would take alone.
    Returns the best beams (B, M, K, N, Nt) and one :class:`SolverTrace` per
    solve, both in the caller's order.
    """
    n_solves = len(channels)
    algos = [algo] * n_solves if isinstance(algo, str) else list(algo)
    for name in algos:
        if name not in ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm '{name}', expected one of {ALGORITHMS}")
    beams = np.array(inits)
    shape = (n_solves, config.M, config.K, config.N, config.Nt)
    if not n_solves or beams.shape != shape:
        raise UsageError(f"need initial beams {shape} for {n_solves} channel states, "
                         f"got {beams.shape}")
    if len(algos) != n_solves:
        raise UsageError(f"need one algorithm or {n_solves}, got {len(algos)}")
    refs = [ref_counts] * n_solves if np.ndim(ref_counts) == 0 else list(ref_counts)
    if len(refs) != n_solves:
        raise UsageError(f"need one reference count or {n_solves}, got {len(refs)}")
    powers0 = bs_powers(beams)
    over = np.any(powers0 > config.Pmax * (1.0 + 1e-9), axis=-1)
    if over.any():
        raise UsageError(f"initial beams violate the power budget: {powers0[np.argmax(over)]}")
    modes = [_ALGO_GAMMA[name] for name in algos]
    order = sorted(range(n_solves), key=lambda b: GAMMA_MODES.index(modes[b]))
    channels, beams = [channels[b] for b in order], beams[order]
    algos, refs, modes = ([seq[b] for b in order] for seq in (algos, refs, modes))
    ranks = {}   # one selection per distinct cb_refim channel state object, cut at each count
    if "cb_refim" in algos:
        from . import refim
        counts = [r for name, r in zip(algos, refs) if name == "cb_refim"]
        if min(counts) < 0:
            raise ConfigurationError(f"reference count must be >= 0, got {min(counts)}")
        for ch, name in zip(channels, algos):
            if name == "cb_refim" and id(ch) not in ranks:
                ranks[id(ch)] = refim.reference_map(ch, config)
    full = full_mask(config)
    masks = np.stack([ranks[id(ch)] < r if name == "cb_refim" else full
                      for ch, name, r in zip(channels, algos, refs)])

    chans = ChannelState(normalized=np.stack([ch.normalized for ch in channels]),
                         n_coordinated=config.M)
    link = link_state(chans, beams, config)
    # per solve, by batch position: latest and best sum-rate, best iterate, counters
    wsr = sum_rate_of_link(config, link).tolist()
    traces = [SolverTrace(algo=name, init_sum_rate=w) for name, w in zip(algos, wsr)]
    best_wsr, best_beams = list(wsr), list(beams)
    best_duals = [np.full(config.M, config.lambda_min)] * n_solves
    prev_outer, outer, inner = list(wsr), [0] * n_solves, [0] * n_solves

    # live lists the solves still running; chans, link, ev and fresh follow its order
    live = np.arange(n_solves)
    fresh = [True] * n_solves                # starting an outer iteration
    ev = None
    while live.size:
        if any(fresh):
            pos = np.flatnonzero(fresh)
            sub_chans, sub_link = _take(chans, link, pos)
            weights, leakages = _all_leakages(sub_chans, _q_from_link(config, sub_link),
                                              masks[live[pos]])
            new = DualEvaluator(sub_chans, weights, leakages, config,
                                [modes[b] for b in live[pos]])
            if all(fresh):
                ev = new
            else:
                ev.put(pos, new)

        duals, betas = lambda_bisection(ev, _interference_of_link(config, link), config)
        beams = update_beams(ev, duals, betas)
        link = link_state(chans, beams, config)
        now = sum_rate_of_link(config, link).tolist()
        res = np.max(_residuals_of_link(chans, beams, duals, config, link),
                     axis=(-3, -2, -1)).tolist()
        powers = bs_powers(beams)
        fresh, done = [], []
        for i, b in enumerate(live.tolist()):
            trace, before = traces[b], wsr[b]
            wsr[b] = now[i]
            trace.iteration_index.append((outer[b], inner[b]))
            trace.sum_rates.append(now[i])
            trace.bs_power_trace.append(powers[i])
            trace.residuals.append(res[i])
            if now[i] < before * (1.0 - 1e-12):
                trace.non_monotone_steps += 1
            if now[i] > best_wsr[b]:
                # a copy: a view would keep the whole batch's beams of this step alive
                best_wsr[b], best_beams[b], best_duals[b] = now[i], beams[i].copy(), duals[i]
            inner[b] += 1
            converged = abs(now[i] - before) <= config.inner_tol * max(abs(before), 1e-12)
            ended = converged or inner[b] == config.L_in_max
            stop = False
            if ended:
                trace.inner_converged.append(converged)
                trace.outer_sum_rates.append(now[i])
                trace.converged_outer = (abs(now[i] - prev_outer[b])
                                         <= config.outer_tol * max(abs(prev_outer[b]), 1e-12))
                prev_outer[b] = now[i]
                outer[b] += 1
                inner[b] = 0
                stop = trace.converged_outer or outer[b] == config.L_out_max
                if stop:
                    trace.best_sum_rate, trace.duals = best_wsr[b], best_duals[b]
            fresh.append(ended and not stop)
            done.append(stop)
        if any(done):
            keep = np.flatnonzero(np.logical_not(done))
            live, fresh = live[keep], [fresh[i] for i in keep]
            chans, link = _take(chans, link, keep)
            ev = ev.select(keep)
    back = np.argsort(order)      # batch position of each solve in the caller's order
    return np.stack(best_beams)[back], [traces[b] for b in back]


def solve(channels: ChannelState, config: NetworkConfig, init: np.ndarray,
          algo: str, ref_count: int = 1) -> tuple[np.ndarray, SolverTrace]:
    """One solve: :func:`solve_batch` with B = 1."""
    beams, traces = solve_batch([channels], config, init[None], algo, ref_count)
    return beams[0], traces[0]


# ---------------------------------------------------------------------------
# KKT diagnostics
# ---------------------------------------------------------------------------

def lagrangian_value(channels: ChannelState, beams: np.ndarray, duals: np.ndarray,
                     config: NetworkConfig) -> float:
    """Weighted sum-rate plus the dual-weighted power slack."""
    slack = config.Pmax - bs_powers(beams)
    return weighted_sum_rate(channels, beams, config) + float(np.dot(duals, slack))


def _stationarity_terms(channels: ChannelState, config: NetworkConfig,
                        link: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the stationarity equation without the dual term, each
    (..., M, K, N, Nt): the leakage term L v, and the own-link term
    w G v / (1 + total received power), from the beams' :func:`link_state`."""
    h = channels.normalized
    amps, total, _ = link
    weights = _victim_weights(full_mask(config), _q_from_link(config, link))
    leak = np.einsum("...mkng,...mkgn,...mgna->...mkna", weights, amps, h)
    shape = total.shape[:-2] + (config.M, config.K, config.N)
    gids = np.arange(config.n_users)
    own_amps = amps[..., gids // config.K, gids % config.K, gids, :].reshape(shape)
    own = own_links(channels, config) * own_amps[..., None]
    gain = config.weights / (1.0 + total.reshape(shape))
    return leak, gain[..., None] * own


def lagrangian_gradient(channels: ChannelState, beams: np.ndarray, duals: np.ndarray,
                        config: NetworkConfig) -> np.ndarray:
    """Analytic gradient of the Lagrangian, shape (M, K, N, Nt).

    Convention: entry a holds d/dRe(v_a) + 1j * d/dIm(v_a), i.e. twice the
    conjugate Wirtinger derivative, which is what central finite differences
    of the real-valued Lagrangian reproduce component-wise.
    """
    leak, own = _stationarity_terms(channels, config, link_state(channels, beams, config))
    grad = (2.0 / LN2) * (own - leak) - 2.0 * duals[:, None, None, None] * beams
    return np.where(config.assignment[..., None], grad, 0.0)


def finite_difference_gradient(channels: ChannelState, beams: np.ndarray,
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
                diff = (lagrangian_value(channels, vp, duals, config)
                        - lagrangian_value(channels, vm, duals, config))
                grad[m, k, n, a] += direction * diff / (2.0 * step)
    return grad


def stationarity_residuals(channels: ChannelState, beams: np.ndarray,
                           duals: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """Relative stationarity residual per triple, shape (M, K, N).

    || (L + lambda*ln2*I) v - w G v / (1 + v^H G v + i) || / ||v||
    with L and i recomputed from the given beams; zero where the beam is off.
    """
    return _residuals_of_link(channels, beams, duals, config,
                              link_state(channels, beams, config))


def _residuals_of_link(channels: ChannelState, beams: np.ndarray, duals: np.ndarray,
                       config: NetworkConfig, link: tuple) -> np.ndarray:
    leak, own = _stationarity_terms(channels, config, link)
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


def kkt_report(channels: ChannelState, beams: np.ndarray, duals: np.ndarray,
               config: NetworkConfig, fd_step: float = 1e-5) -> KKTReport:
    """Evaluate all first-order conditions at (beams, duals).

    Includes a cross-check of the analytic Lagrangian gradient against
    central finite differences at step ``fd_step``.
    """
    powers = bs_powers(beams)
    violation = float(np.max(np.maximum(powers - config.Pmax, 0.0)))
    comp = float(np.max(np.abs(duals * (config.Pmax - powers))))
    res = float(np.max(stationarity_residuals(channels, beams, duals, config)))
    g_an = lagrangian_gradient(channels, beams, duals, config)
    g_fd = finite_difference_gradient(channels, beams, duals, config, step=fd_step)
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
