"""Network configuration and flat key=value config-file parsing.

All powers are linear; dB enters only through ``gamma_db`` at this boundary.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError


def is_finite_number(v) -> bool:
    """A real, non-boolean, finite number."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


@dataclass
class NetworkConfig:
    """Static description of one coordinated cluster.

    The defaults are the reference scenario: 3 coordinated cells, 3
    subchannels, 3 users per cell, 3 transmit antennas, transmit SNR 30 dB.

    M:  coordinated base stations (1..3 supported by the layout generator)
    N:  OFDMA subchannels
    K:  users per cell
    Nt: transmit antennas per BS
    Pmax: per-BS power budget (linear, identical for all BSs)
    gamma_db: transmit SNR gamma = Pmax / sigma^2 in dB
    weights: per-(cell, user, subchannel) rate weights, shape (M, K, N);
             default 1/(M*N) which turns the objective into plain sum-rate
    assignment: boolean activity mask, shape (M, K, N); default all-active
                (every user of a cell shares every subchannel via SDMA)
    """
    M: int = 3
    N: int = 3
    K: int = 3
    Nt: int = 3
    Pmax: float = 1.0
    gamma_db: float = 30.0
    weights: np.ndarray | None = None
    assignment: np.ndarray | None = None
    L_in_max: int = 40
    L_out_max: int = 4
    lambda_min: float = 1e-10
    inner_tol: float = 1e-6   # relative weighted-sum-rate change, inner loop
    outer_tol: float = 1e-4   # relative weighted-sum-rate change, outer loop

    def __post_init__(self):
        for name in ("M", "N", "K", "Nt"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")
        if self.M > 3:
            raise ConfigurationError(
                f"M must be 1..3, the cluster sizes the layout generator places; got M={self.M}")
        for name in ("Pmax", "lambda_min"):
            v = getattr(self, name)
            if not (is_finite_number(v) and v > 0):
                raise ConfigurationError(f"{name} must be a finite number > 0, got {v!r}")
        if not is_finite_number(self.gamma_db):
            raise ConfigurationError(f"gamma_db must be a finite number, got {self.gamma_db!r}")
        for name in ("inner_tol", "outer_tol"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and v >= 0):     # NaN fails v >= 0
                raise ConfigurationError(f"{name} must be a number >= 0, got {v!r}")
        for name in ("L_in_max", "L_out_max"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")
        if self.weights is None:
            self.weights = np.full((self.M, self.K, self.N), 1.0 / (self.M * self.N))
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (self.M, self.K, self.N):
                raise ConfigurationError(
                    f"weights must have shape {(self.M, self.K, self.N)}, "
                    f"got {self.weights.shape}")
            if not np.all(np.isfinite(self.weights)):
                raise ConfigurationError("weights must be finite")
            if np.any(self.weights < 0):
                raise ConfigurationError("weights must be nonnegative")
        if self.assignment is None:
            self.assignment = np.ones((self.M, self.K, self.N), dtype=bool)
        else:
            self.assignment = np.asarray(self.assignment, dtype=bool)
            if self.assignment.shape != (self.M, self.K, self.N):
                raise ConfigurationError(
                    f"assignment must have shape {(self.M, self.K, self.N)}, "
                    f"got {self.assignment.shape}")

    @property
    def gamma_lin(self) -> float:
        return 10.0 ** (self.gamma_db / 10.0)

    @property
    def sigma2(self) -> float:
        """Thermal noise power sigma^2 = Pmax / gamma."""
        return self.Pmax / self.gamma_lin

    @property
    def n_users(self) -> int:
        """Total user count across the cluster (global user index runs 0..MK-1)."""
        return self.M * self.K

    def user_id(self, m: int, k: int) -> int:
        """Global user index of user k served by cell m."""
        return m * self.K + k

    def is_active(self, m: int, k: int, n: int) -> bool:
        return bool(self.assignment[m, k, n])

    def with_gamma_db(self, gamma_db: float) -> "NetworkConfig":
        return replace(self, gamma_db=float(gamma_db),
                       weights=self.weights.copy(),
                       assignment=self.assignment.copy())


# ---------------------------------------------------------------------------
# key=value config files
# ---------------------------------------------------------------------------

def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip() != "")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


#: key -> converter for the flat config-file format. Unknown keys are rejected.
CONFIG_SCHEMA = {
    "M": int,
    "N": int,
    "K": int,
    "Nt": int,
    "pmax": float,
    "gamma_db": _parse_float_list,
    "L_in_max": int,
    "L_out_max": int,
    "lambda_min": float,
    "inner_tol": float,
    "outer_tol": float,
    "trials": int,
    "seed": int,
    "algos": _parse_str_list,
    "init": str,
    "refs": int,
    "workers": int,
    "qbits": int,
    "k_list": _parse_int_list,
    "nt_list": _parse_int_list,
    "out": str,
    "timestamp": _parse_bool,
}


def parse_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` text file into typed values.

    Lines starting with ``#`` and blank lines are ignored. Unknown keys and
    malformed values raise :class:`ConfigurationError` naming the key.
    """
    values: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key '{key}'")
        try:
            values[key] = parse_value(key, value)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
    return values


def parse_value(key: str, text: str):
    """One value by its :data:`CONFIG_SCHEMA` converter, for config files and
    command-line flags alike; a malformed value raises
    :class:`ConfigurationError` naming the key."""
    try:
        return CONFIG_SCHEMA[key](text)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"malformed value for key '{key}': {text!r} ({exc})") from None


#: config-file key -> NetworkConfig field, for the keys that describe the network.
_NETWORK_KEYS = {"M": "M", "N": "N", "K": "K", "Nt": "Nt", "pmax": "Pmax",
                 "L_in_max": "L_in_max", "L_out_max": "L_out_max",
                 "lambda_min": "lambda_min", "inner_tol": "inner_tol",
                 "outer_tol": "outer_tol"}


def network_config_from_values(values: dict, gamma_db: float | None = None) -> NetworkConfig:
    """Build a NetworkConfig from parsed config values; the NetworkConfig
    defaults fill the gaps. ``gamma_db`` defaults to the file's first value."""
    kwargs = {name: values[key] for key, name in _NETWORK_KEYS.items() if key in values}
    if gamma_db is None and "gamma_db" in values:
        gamma_db = values["gamma_db"][0]
    if gamma_db is not None:
        kwargs["gamma_db"] = float(gamma_db)
    return NetworkConfig(**kwargs)
