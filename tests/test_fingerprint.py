"""Behaviour fingerprint: pinned end results of every algorithm.

``tests/data/fingerprint.json`` holds, for FP_TRIALS trials at a fixed
master seed, each algorithm's final weighted sum-rate and per-user rates at
10/30/50 dB, cb_refim with 0, 1 and 8 references at 30 dB, and the
24-site interferer ring for M = 1, 2, 3. A refactor must reproduce them.
Reordered float sums move the rates by about 1e-15 relative, so the
tolerances below still catch any real change; the ring must match exactly.

Regenerate (only when a behaviour change is intended) with

    PYTHONPATH=src python tests/test_fingerprint.py --write
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cbsim.config import NetworkConfig
from cbsim.experiments import DEFAULT_ALGOS, ExperimentSpec, run_solver_trials
from cbsim.network import build_topology

DATA = Path(__file__).resolve().parent / "data" / "fingerprint.json"
FP_SEED = 4242
FP_TRIALS = 5
FP_GAMMAS = (10.0, 30.0, 50.0)
FP_REFS = (0, 1, 8)
WSR_RTOL = 1e-9
RATE_ATOL = 1e-9


def _runs():
    """(label, spec) pairs whose trial results the fingerprint records."""
    yield "all", ExperimentSpec(kind="snr_sweep", trials=FP_TRIALS, seed=FP_SEED,
                                gamma_db=FP_GAMMAS, algos=DEFAULT_ALGOS,
                                timestamp=False)
    for refs in FP_REFS:
        yield f"refs{refs}", ExperimentSpec(kind="snr_sweep", trials=FP_TRIALS,
                                            seed=FP_SEED, gamma_db=(30.0,),
                                            algos=("cb_refim",), refs=refs,
                                            timestamp=False)


def compute_fingerprint() -> dict:
    config = NetworkConfig()
    trials = []
    for t in range(FP_TRIALS):
        entry = {}
        for label, spec in _runs():
            wsr, _, user_rates = run_solver_trials(config, spec, (t,))
            for algo, row_wsr, row_rates in zip(spec.algos, wsr[:, 0], user_rates[:, 0]):
                name = algo if label == "all" else f"{algo}_{label}"
                for gamma, w, rates in zip(spec.gamma_db, row_wsr, row_rates):
                    entry[f"{name}@{gamma:g}"] = {"wsr": float(w), "user_rates": rates.tolist()}
        trials.append(entry)
    rings = {str(m): build_topology(NetworkConfig(M=m, K=1), seed=0).bs_xy[m:].tolist()
             for m in (1, 2, 3)}
    return {"seed": FP_SEED, "trials": trials, "rings": rings}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def current():
    return compute_fingerprint()


def test_fingerprint_covers_every_algorithm_and_reference_count(pinned):
    keys = set(pinned["trials"][0])
    want = {f"{a}@{g:g}" for a in DEFAULT_ALGOS for g in FP_GAMMAS}
    want |= {f"cb_refim_refs{r}@30" for r in FP_REFS}
    assert keys == want
    assert len(pinned["trials"]) == FP_TRIALS


def test_rates_match_the_fingerprint(pinned, current):
    for t, (want, got) in enumerate(zip(pinned["trials"], current["trials"])):
        assert set(got) == set(want)
        for key, ref in want.items():
            assert got[key]["wsr"] == pytest.approx(ref["wsr"], rel=WSR_RTOL, abs=0.0), \
                f"trial {t} {key}"
            np.testing.assert_allclose(got[key]["user_rates"], ref["user_rates"],
                                       rtol=0.0, atol=RATE_ATOL,
                                       err_msg=f"trial {t} {key}")


def test_interferer_ring_matches_exactly(pinned, current):
    assert current["rings"] == pinned["rings"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_fingerprint.py --write")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(compute_fingerprint(), indent=1) + "\n")
    print(f"wrote {DATA}")
