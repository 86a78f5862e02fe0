"""Independent oracles for cross-checking the library code.

The scalar oracles are written with explicit Python loops over complex
scalars so they share no code path with the package internals. The WMMSE
solver at the end is batched numpy for speed; like the rest of this module it
imports nothing from the package.
"""
import numpy as np


def active_triples(config):
    return [(m, k, n)
            for m in range(config.M)
            for k in range(config.K)
            for n in range(config.N)
            if config.assignment[m, k, n]]


def amp(h_vec, v_vec):
    """h^H v by explicit scalar accumulation."""
    total = 0j
    for a in range(len(h_vec)):
        total += complex(h_vec[a]).conjugate() * complex(v_vec[a])
    return total


def received_power(h, beams, config, j, u, g, n):
    return abs(amp(h[j, g, n], beams[j, u, n])) ** 2


def interference_scalar(h, beams, config, m, k, n):
    own = config.user_id(m, k)
    total = 0.0
    for j, u, nn in active_triples(config):
        if nn != n or (j, u) == (m, k):
            continue
        total += received_power(h, beams, config, j, u, own, n)
    return total


def sinr_scalar(h, beams, config, m, k, n):
    own = config.user_id(m, k)
    sig = received_power(h, beams, config, m, k, own, n)
    return sig / (1.0 + interference_scalar(h, beams, config, m, k, n))


def wsr_scalar(h, beams, config):
    total = 0.0
    for m, k, n in active_triples(config):
        s = sinr_scalar(h, beams, config, m, k, n)
        total += config.weights[m, k, n] * np.log2(1.0 + s)
    return total


def slnr_scalar(h, beams, config, m, k, n):
    own = config.user_id(m, k)
    v = beams[m, k, n]
    sig = abs(amp(h[m, own, n], v)) ** 2
    leak = 0.0
    for j, u, nn in active_triples(config):
        if nn != n or (j, u) == (m, k):
            continue
        leak += abs(amp(h[m, config.user_id(j, u), n], v)) ** 2
    return sig / (1.0 + leak)


def leakage_scalar(h, beams, config, m, k, n):
    """Leakage matrix via the double-denominator form of the victim weights:

        q_u = w_u * sig_u / ((1 + interference_u) * (1 + interference_u + sig_u))

    which is an independent algebraic route to w * SINR / (1 + total power).
    """
    nt = config.Nt
    mat = np.zeros((nt, nt), dtype=complex)
    own = config.user_id(m, k)
    for j, u, nn in active_triples(config):
        if nn != n or (j, u) == (m, k):
            continue
        g = config.user_id(j, u)
        sig = received_power(h, beams, config, j, u, g, n)
        interf = interference_scalar(h, beams, config, j, u, n)
        q = config.weights[j, u, n] * sig / ((1.0 + interf) * (1.0 + interf + sig))
        hg = h[m, g, n]
        for a in range(nt):
            for b in range(nt):
                mat[a, b] += q * hg[a] * complex(hg[b]).conjugate()
    return mat


def out_of_cell_reference_counts_loop(config, refmap):
    """Distinct out-of-cell reference users per (BS, subchannel)."""
    counts = np.zeros((config.M, config.N), dtype=int)
    for m in range(config.M):
        for n in range(config.N):
            distinct = set()
            for k in range(config.K):
                for (j, u) in refmap.get((m, k, n), []):
                    if j != m:
                        distinct.add((j, u))
            counts[m, n] = len(distinct)
    return counts


def feedback_bits_loop(config, algo, counts, qbits):
    """Feedback bits of a fully meshed cluster: every neighbour user's
    channel (2 Nt reals) plus 3 scalars, per user for the full algorithm
    and per distinct out-of-cell reference for cb_refim."""
    reals = 0
    for m in range(config.M):
        for n in range(config.N):
            others = sum(1 for j in range(config.M) if j != m
                         for u in range(config.K) if config.assignment[j, u, n])
            if algo == "cb_refim":
                reals += others * 2 * config.Nt + 3 * int(counts[m, n])
            else:
                reals += others * (2 * config.Nt + 3)
    return reals * qbits


def scheduled_users(config, m, n):
    """All (cell, user) pairs active on subchannel n across the neighbourhood
    of BS m, which is the full cluster."""
    return [(j, u) for j in range(config.M) for u in range(config.K)
            if config.is_active(j, u, n)]


def reference_scores(h, config, m, k, n, candidates):
    """||h_{m,u}(n)||^2 * |h_{m,u}(n)^H h_{m,k}(n)|^2 per candidate u."""
    hk = h[m, config.user_id(m, k), n]
    scores = np.empty(len(candidates))
    for idx, (j, u) in enumerate(candidates):
        hu = h[m, config.user_id(j, u), n]
        scores[idx] = np.sum(np.abs(hu) ** 2) * np.abs(np.vdot(hu, hk)) ** 2
    return scores


def select_references(h, config, m, k, n, r_count):
    """The r_count highest-scoring candidates of an active triple, descending
    score; ties break towards the lowest (cell, user)."""
    if not config.is_active(m, k, n) or r_count < 0:
        raise ValueError(f"no references for ({m}, {k}, {n}) with r_count={r_count}")
    candidates = [(j, u) for (j, u) in scheduled_users(config, m, n) if (j, u) != (m, k)]
    if r_count == 0 or not candidates:
        return []
    scores = reference_scores(h, config, m, k, n, candidates)
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], candidates[i]))
    return [candidates[i] for i in order[:r_count]]


def zf_loop(h, config):
    """Per-cell zero-forcing beams by one projection per active triple: the
    channel minus its projection on the other active same-cell channels of
    the subchannel, scaled to sqrt(Pmax / (N K)). Raises ValueError where
    the package raises a configuration or degenerate-channel error."""
    beams = np.zeros((config.M, config.K, config.N, config.Nt), dtype=complex)
    scale = np.sqrt(config.Pmax / (config.N * config.K))
    eye = np.eye(config.Nt, dtype=complex)
    for m in range(config.M):
        for n in range(config.N):
            active = [k for k in range(config.K) if config.is_active(m, k, n)]
            if len(active) > config.Nt:
                raise ValueError(f"cell {m} subchannel {n} has more users than antennas")
            for k in active:
                others = [config.user_id(m, u) for u in active if u != k]
                hk = h[m, config.user_id(m, k), n]
                if others:
                    stacked = h[m, others, n].T               # (Nt, K-1)
                    gram = stacked.conj().T @ stacked
                    proj = stacked @ np.linalg.solve(gram, stacked.conj().T)
                    residual = (eye - proj) @ hk
                else:
                    residual = hk
                norm = np.linalg.norm(residual)
                if norm <= 1e-14 * np.linalg.norm(hk):
                    raise ValueError(f"channel of user ({m}, {k}) is degenerate")
                beams[m, k, n] = scale * residual / norm
    return beams


def mslnr_loop(h, config):
    """Max-SLNR beams D^{-1} h by one dense solve per active triple, with D
    the ridge (N K / Pmax) I plus every other active co-subchannel user's
    h_u h_u^H, accumulated one outer product at a time."""
    beams = np.zeros((config.M, config.K, config.N, config.Nt), dtype=complex)
    scale = np.sqrt(config.Pmax / (config.N * config.K))
    ridge = config.N * config.K / config.Pmax
    for m, k, n in active_triples(config):
        dmat = ridge * np.eye(config.Nt, dtype=complex)
        for j in range(config.M):
            for u in range(config.K):
                if (j, u) == (m, k) or not config.is_active(j, u, n):
                    continue
                hu = h[m, config.user_id(j, u), n]
                dmat += np.outer(hu, hu.conj())
        direction = np.linalg.solve(dmat, h[m, config.user_id(m, k), n])
        beams[m, k, n] = scale * direction / np.linalg.norm(direction)
    return beams


def grid_search_two_cell(h, pmax, w, n_theta=21, n_phi=20, n_pow=5):
    """Dense grid over per-BS beam direction and power for the 2-cell,
    1-user-per-cell, single-subchannel network.

    h[m][u] is the channel from BS m to user u; user m is served by BS m.
    Directions are cos(t)*e1 + sin(t)*exp(1j*p)*e2 in the plane spanned by
    the served and the victim channel; including the endpoints puts the
    matched and zero-forcing corners exactly on the grid. Returns the best
    weighted sum-rate found and the number of beam pairs examined.
    """
    options = []
    for m in range(2):
        own, other = h[m][m], h[m][1 - m]
        e1 = own / np.linalg.norm(own)
        e2 = other - e1 * np.vdot(e1, other)
        n2 = np.linalg.norm(e2)
        if n2 > 1e-12:
            e2 = e2 / n2
        else:
            e2 = np.array([-np.conj(e1[1]), np.conj(e1[0])])
        thetas = np.linspace(0.0, np.pi / 2.0, n_theta)
        phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
        powers = np.linspace(pmax / n_pow, pmax, n_pow)
        t, p, pw = np.meshgrid(thetas, phis, powers, indexing="ij")
        sig = pw * np.cos(t) ** 2 * abs(np.vdot(own, e1)) ** 2
        c1, c2 = np.vdot(other, e1), np.vdot(other, e2)
        cross = pw * np.abs(np.cos(t) * c1 + np.sin(t) * np.exp(1j * p) * c2) ** 2
        options.append((sig.ravel(), cross.ravel()))
    s1, x1 = options[0]
    s2, x2 = options[1]
    rates = (w * np.log2(1.0 + s1[:, None] / (1.0 + x2[None, :]))
             + w * np.log2(1.0 + s2[None, :] / (1.0 + x1[:, None])))
    best = max(float(rates.max()),
               float(w * np.log2(1.0 + s1.max())),
               float(w * np.log2(1.0 + s2.max())))
    return best, s1.size * s2.size


# ---------------------------------------------------------------------------
# dual bisection: every midpoint evaluated
# ---------------------------------------------------------------------------

def dual_bisection(power, lam_min, lam_up, pmax, width_rtol, power_rtol, max_steps):
    """The per-BS dual bisection that evaluates f at every midpoint.

    ``power(lam)`` returns (beta^2 per triple, f per row) at per-row duals;
    ``lam_up`` is each row's dual upper bound. Each row gets the smallest
    lambda in [lam_min, lam_up] whose f fits ``pmax``, bisected on its own
    bracket until the bracket is narrower than width_rtol * lam_up or f at
    the upper end lies within power_rtol * pmax of the budget; a row that
    fits at lam_min keeps it. Returns the duals and beta^2 at them.
    """
    lo = np.full(lam_up.shape, lam_min)
    done = power(lo)[1] <= pmax
    hi = lam_up = np.where(done, lo, lam_up)
    b2, f_hi = power(hi)
    assert np.all(f_hi <= pmax), "the upper bound must fit the budget"
    width = width_rtol * lam_up
    moved = False
    for _ in range(max_steps):
        done |= hi - lo <= width
        done |= pmax - f_hi <= power_rtol * pmax
        if done.all():
            break
        moved = True
        mid = 0.5 * (lo + hi)
        f_mid = power(mid)[1]
        fits = ~done & (f_mid <= pmax)
        lo = np.where(done | fits, lo, mid)
        hi = np.where(fits, mid, hi)
        f_hi = np.where(fits, f_mid, f_hi)
    if moved:
        b2 = power(hi)[0]
    return hi, b2


# ---------------------------------------------------------------------------
# WMMSE: an independent full-scale weighted-sum-rate solver
# ---------------------------------------------------------------------------

def _link_state(h, beams):
    """Own-beam amplitude h^H v and interference-plus-noise per user.

    h:     (T, M, M, K, N, Nt) noise-normalized channels, BS j -> user (i, l)
    beams: (T, M, K, N, Nt), beam (j, u, n) serves user (j, u) on subchannel n
    Both results have shape (T, M, K, N); the noise floor is 1.
    """
    m, k = beams.shape[1:3]
    amps = np.einsum("tjilna,tjuna->tjuiln", h.conj(), beams)
    power = np.abs(amps) ** 2
    own = np.eye(m * k, dtype=bool).reshape(m, k, m, k)[None, :, :, :, :, None]
    interf = 1.0 + np.sum(np.where(own, 0.0, power), axis=(1, 2))
    return np.einsum("tjujun->tjun", amps), interf


def _rates(sig, interf):
    return np.log2(1.0 + np.abs(sig) ** 2 / interf)


def link_rates(h, beams):
    """log2(1 + SINR) per (trial, cell, user, subchannel).

    h is (T, M, M*K, N, Nt) as the package stores it; beams (T, M, K, N, Nt).
    """
    t, m, k, n, nt = beams.shape
    return _rates(*_link_state(h.reshape(t, m, m, k, n, nt), beams))


def _budget_duals(d, b, pmax, steps=64):
    """Smallest mu >= 0 with sum_{n,a} b / (d + mu)^2 <= pmax, per (trial, BS).

    d, b: (T, M, N, Nt) eigenvalues of the per-BS quadratic and the squared
    right-hand side in its eigenbasis. Bisection keeps the feasible end, so
    the result meets the budget and exceeds the exact dual by at most
    2**-steps of the starting bracket.
    """
    def power(mu):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(b > 0.0, b / (d + mu[..., None, None]) ** 2, 0.0)
        return terms.sum(axis=(-2, -1))

    lo = np.zeros(b.shape[:2])
    hi = np.sqrt(b.sum(axis=(-2, -1)) / pmax)
    feasible = power(lo) <= pmax
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        over = power(mid) > pmax
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    return np.where(feasible, 0.0, hi)


def _beam_update(h, sig, interf, weights, pmax):
    """One WMMSE beam update from the link state of the current beams."""
    total = interf + np.abs(sig) ** 2
    rx = sig / total
    mse_weight = total / interf
    coeff = weights * mse_weight * np.abs(rx) ** 2
    quad = np.einsum("tjilna,tjilnb->tjnab",
                     coeff[:, None, :, :, :, None] * h, h.conj())
    rhs = (weights * mse_weight * rx)[..., None] * np.einsum("tjjkna->tjkna", h)
    d, vecs = np.linalg.eigh(quad)
    d = np.maximum(d, 0.0)
    rot = np.einsum("tjnba,tjknb->tjkna", vecs.conj(), rhs)
    mu = _budget_duals(d, np.sum(np.abs(rot) ** 2, axis=2), pmax)
    denom = d + mu[:, :, None, None]
    with np.errstate(divide="ignore"):
        scale = np.where(denom > 0.0, 1.0 / denom, 0.0)
    return np.einsum("tjnba,tjkna->tjknb", vecs, rot * scale[:, :, None])


def wmmse(h, beams, weights, pmax, iters, tol=1e-6):
    """Weighted-sum-rate beams by WMMSE, batched over trials.

    Shi, Razaviyayn, Luo & He, "An iteratively weighted MMSE approach to
    distributed sum-utility maximization for a MIMO interfering broadcast
    channel", IEEE TSP 2011. Each iteration sets every user's MMSE receiver
    r = h^H v / (total received power) and MSE weight s = 1 / MSE = 1 + SINR
    from the current beams, then solves each BS's convex quadratic beam
    problem exactly under its budget sum_{k,n} ||v_{m,k,n}||^2 <= pmax:

        v_{m,k,n} = (A_{m,n} + mu_m I)^{-1} w s r h_{m -> (m,k)}(n),
        A_{m,n}   = sum over users (i, l) of w |r|^2 s h_{m -> (i,l)} h^H

    where w (the rate weight), s and r belong to the receiving triple and the
    dual mu_m is found by bisection. The weighted sum-rate never decreases,
    and a beam that is exactly zero stays zero. A trial stops after `iters`
    iterations, or once an iteration raises its weighted sum-rate by no more
    than `tol` relative; tol=-inf runs every trial for all `iters`.

    h:       (T, M, M*K, N, Nt) noise-normalized channels
    beams:   (T, M, K, N, Nt) feasible starting beams
    weights: (M, K, N) rate weights, zero for unscheduled triples
    Returns the final beams and the weighted sum-rate of shape
    (T, iters + 1): the start, then every iteration, held constant once a
    trial has stopped.
    """
    t, m, k, n, nt = beams.shape
    hu = h.reshape(t, m, m, k, n, nt)
    beams = beams.copy()
    sig, interf = _link_state(hu, beams)
    wsr = np.empty((t, iters + 1))
    wsr[:, 0] = np.sum(weights * _rates(sig, interf), axis=(1, 2, 3))
    running = np.arange(t)
    for it in range(1, iters + 1):
        wsr[:, it] = wsr[:, it - 1]
        if running.size == 0:
            continue
        beams[running] = _beam_update(hu[running], sig[running], interf[running],
                                      weights, pmax)
        sig[running], interf[running] = _link_state(hu[running], beams[running])
        wsr[running, it] = np.sum(weights * _rates(sig[running], interf[running]),
                                  axis=(1, 2, 3))
        gain = wsr[running, it] - wsr[running, it - 1]
        running = running[gain > tol * wsr[running, it - 1]]
    return beams, wsr
