"""The three benchmark workloads and the CSV checks that apply to them.

Every workload runs at desk scale (M = N = K = Nt = 3) with the mslnr
initializer and one reference user, single-process and without the CSV
timestamp, through ``cbsim.run_experiment`` -- the path the ``sim`` CLI
takes. This module imports neither numpy nor cbsim, so the set-up probe can
time those imports itself.
"""
from __future__ import annotations

import csv
import math

TRIALS_PER_CALL = 2
SOLVER_ALGOS = ("icbf", "icbf_wi", "cb_refim")
BASELINE = "mslnr"

#: kind and ExperimentSpec fields of each workload. The k_list/nt_list of
#: feedback are the ExperimentSpec defaults (K = 2..10, Nt = 2, 3, 4).
WORKLOADS = {
    "snr_sweep": dict(kind="snr_sweep", gamma_db=(10.0, 30.0, 50.0),
                      algos=("cm", "zf", "mslnr", "icbf", "icbf_wi", "cb_refim")),
    "ref_sweep": dict(kind="ref_sweep", gamma_db=(30.0,),
                      algos=("cm", "zf", "mslnr", "icbf_wi", "cb_refim")),
    "feedback": dict(kind="feedback"),
}

#: Sum-rate columns of a pinned check must agree to this relative tolerance.
#: Reordered float sums change the last digits, and the solver's stopping
#: tests can amplify that; stopping a solve early moves a mean far more.
RATE_RTOL = 1e-5

HEADERS = {
    "snr_sweep": ["algo", "gamma_db", "mean_sum_rate", "std_sum_rate", "trials"],
    "ref_sweep": ["algo", "refs", "gamma_db", "mean_sum_rate", "trials"],
    "feedback": ["algo", "K", "Nt", "bits"],
}

# Desk scale. At M = 3 every BS neighbours every other, and all users are
# active on every subchannel, which the feedback bit counts below rely on.
M = N = K = NT = 3
_QBITS = 8
_SCALAR_REALS = 3


def make_config_and_spec(cbsim, name: str, seed: int, out: str):
    """NetworkConfig and ExperimentSpec of one call of workload ``name``."""
    fields = dict(WORKLOADS[name])
    spec = cbsim.ExperimentSpec(trials=TRIALS_PER_CALL, seed=seed, init="mslnr",
                                refs=1, workers=1, timestamp=False, out=out,
                                **fields)
    config = cbsim.NetworkConfig(M=M, N=N, K=K, Nt=NT, gamma_db=spec.gamma_db[0])
    return config, spec


def expected_rows(name: str) -> list[list[str]]:
    """The row keys (the non-measured columns) a correct CSV holds, in order."""
    spec = WORKLOADS[name]
    if name == "snr_sweep":
        return [[a, f"{g:g}"] for a in spec["algos"] for g in spec["gamma_db"]]
    if name == "ref_sweep":
        refs = range(M * K)
        keys = []
        for g in spec["gamma_db"]:
            keys += [[a, "", f"{g:g}"] for a in spec["algos"] if a != "cb_refim"]
            keys += [["cb_refim", str(r), f"{g:g}"] for r in refs]
        return keys
    grid = [(k, nt) for nt in (2, 3, 4) for k in range(2, 11)]
    return ([["icbf", str(k), str(nt)] for k, nt in grid]
            + [["cb_refim", str(k), str(nt)] for k, nt in grid])


def icbf_bits(k: int, nt: int) -> int:
    """Full-algorithm feedback bits: every out-of-cell user's channel and
    three scalars, for every BS and subchannel."""
    return M * N * (M - 1) * k * (2 * nt + _SCALAR_REALS) * _QBITS


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_rows(name: str, rows: list[list[str]], trials: int) -> tuple[int, int]:
    """Seed-independent checks of one call's CSV.

    Returns (trials the CSV reports as kept, rows that fail a check). A
    missing or extra row counts as one failure, and so does a malformed
    header. The checks are:

    * sweeps: every value finite, sum-rates positive, and no solver row
      below the mslnr row at the same SNR -- a solve starts from the mslnr
      beams and returns its best iterate, so it can never end lower;
    * feedback: icbf bits exactly as the closed form gives them, and
      cb_refim bits between the no-reference and the every-beam-has-an-
      out-of-cell-reference count, on the 24-bit grid one reference adds.
    """
    if not rows or rows[0] != HEADERS[name]:
        return 0, 1 + len(rows)
    body = rows[1:]
    keys = expected_rows(name)
    width = len(keys[0])
    bad = abs(len(body) - len(keys))
    bad += sum(1 for row, key in zip(body, keys) if row[:width] != key)
    if name == "feedback":
        return trials, bad + _check_feedback(body)
    whole = [row for row in body if len(row) == len(HEADERS[name])]
    bad += len(body) - len(whole)
    gamma_col, rate_col = (1, 2) if name == "snr_sweep" else (2, 3)
    floor = {row[gamma_col]: _finite(row[rate_col]) for row in whole
             if row[0] == BASELINE}
    kept = trials
    for row in whole:
        values = [_finite(v) for v in row[width:]]
        if None in values or values[0] <= 0 or min(values) < 0:
            bad += 1
            continue
        kept = min(kept, int(values[-1]))
        low = floor.get(row[gamma_col]) or math.inf
        if row[0] in SOLVER_ALGOS and values[0] < low * (1 - 1e-9):
            bad += 1
    return kept, bad


def _check_feedback(body: list[list[str]]) -> int:
    bad = 0
    for row in body:
        if len(row) != 4 or not (row[1].isdigit() and row[2].isdigit()):
            bad += 1
            continue
        k, nt = int(row[1]), int(row[2])
        value = _finite(row[3])
        if value is None:
            bad += 1
        elif row[0] == "icbf":
            bad += row[3] != str(icbf_bits(k, nt))
        else:
            base = M * N * (M - 1) * k * 2 * nt * _QBITS
            steps = (value - base) * TRIALS_PER_CALL / (_SCALAR_REALS * _QBITS)
            bad += not (abs(steps - round(steps)) < 1e-6
                        and 0 <= round(steps) <= TRIALS_PER_CALL * M * N * k)
    return bad


def compare_pinned(name: str, rows: list[list[str]], pinned: list[list[str]]) -> int:
    """Rows of a check-seed CSV that differ from the pinned ones.

    Labels, trial counts and feedback bits must match exactly; sum-rates to
    RATE_RTOL.
    """
    bad = abs(len(rows) - len(pinned))
    rate_cols = {"snr_sweep": (2, 3), "ref_sweep": (3,)}.get(name, ())
    for index, (row, want) in enumerate(zip(rows, pinned)):
        if len(row) != len(want):
            bad += 1
            continue
        ok = True
        for col, (got, ref) in enumerate(zip(row, want)):
            if index and col in rate_cols:
                g, r = _finite(got), _finite(ref)
                ok &= g is not None and r is not None and abs(g - r) <= RATE_RTOL * abs(r)
            else:
                ok &= got == ref
        bad += not ok
    return bad


def quality_terms(name: str, rows: list[list[str]]) -> tuple[float, float]:
    """(numerator, denominator) sums behind the ``gain`` metric.

    Sweeps: solver sum-rates over the mslnr starting point's, per row.
    Feedback: icbf bits over cb_refim bits -- how much signalling the
    reference-user scheme saves.
    """
    body = rows[1:]
    if name == "feedback":
        return (sum(float(r[3]) for r in body if r[0] == "icbf"),
                sum(float(r[3]) for r in body if r[0] == "cb_refim"))
    col = 2 if name == "snr_sweep" else 3
    solver = [float(r[col]) for r in body if r[0] in SOLVER_ALGOS]
    base = [float(r[col]) for r in body if r[0] == BASELINE]
    return sum(solver) / len(solver), sum(base) / len(base)
