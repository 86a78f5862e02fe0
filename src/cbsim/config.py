"""Network configuration, the setting table and flat key=value config files.

Every setting is declared once, as a field of :class:`NetworkConfig` or
:class:`~cbsim.experiments.ExperimentSpec` made by :func:`setting`: its
default, its :class:`Rule` (how its text is parsed and what its value must
be), its config-file key and its command-line flag. The config-file schema,
the ``sim`` flags and both classes' validation are read from these fields.

All powers are linear; dB enters only through ``gamma_db`` at this boundary.
"""
from __future__ import annotations

import math
import numbers
import os
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigurationError


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """A real, non-boolean, finite number."""
    return _real(v) and math.isfinite(v)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Rule:
    """How a setting's text is parsed, and which values it takes: ``check``
    accepts exactly the values that ``wants`` describes."""
    parse: Callable[[str], object]
    check: Callable[[object], bool]
    wants: str


def integer(low: int) -> Rule:
    return Rule(int, lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)
                and v >= low, f"an integer >= {low}")


def one_of(names) -> Rule:
    return Rule(str.strip, lambda v: isinstance(v, str) and v in names, f"one of {sorted(names)}")


def list_of(rule: Rule, fmt: str | None = None) -> Rule:
    """Comma-separated entries, each by ``rule``; empty items are skipped.
    No two entries may be equal, nor, given ``fmt``, print alike in it."""
    def label(v):
        return v if fmt is None else format(v, fmt)

    return Rule(lambda text: tuple(rule.parse(tok) for tok in text.split(",") if tok.strip()),
                lambda v: (isinstance(v, (tuple, list)) and len(v) > 0
                           and all(map(rule.check, v)) and len(set(map(label, v))) == len(v)),
                f"a non-empty list of "
                f"{'distinct entries' if fmt is None else f'entries distinct in format {fmt!r}'}, "
                f"each {rule.wants}")


FINITE = Rule(float, is_finite_number, "a finite number")
POSITIVE = Rule(float, lambda v: is_finite_number(v) and v > 0, "a finite number > 0")
NONNEGATIVE = Rule(float, lambda v: _real(v) and v >= 0, "a number >= 0")   # NaN fails
BOOLEAN = Rule(_parse_bool, lambda v: isinstance(v, (bool, np.bool_)), "a boolean")
PATH = Rule(str, lambda v: isinstance(v, (str, os.PathLike)), "a path")


def setting(default, rule: Rule, key: str | None = "", flag: str | None = None,
            help: str = ""):
    """A dataclass field that is a setting checked by ``rule``. ``key`` is its
    config-file key ("" for the field name, None for none); ``flag`` is its
    ``sim`` flag, described by ``help``."""
    return field(default=default, metadata=dict(rule=rule, key=key, flag=flag, help=help))


def setting_keys(cls) -> dict:
    """Config-file key -> field, for each setting of ``cls`` that has a key."""
    return {f.metadata["key"] or f.name: f for f in fields(cls)
            if f.metadata.get("key") is not None}


def check_settings(obj) -> None:
    """Raise ConfigurationError naming the first setting of dataclass ``obj``
    whose rule rejects its value. None passes where it is the default."""
    for f in fields(obj):
        rule, v = f.metadata.get("rule"), getattr(obj, f.name)
        if rule and not (v is None and f.default is None) and not rule.check(v):
            raise ConfigurationError(f"{f.name} must be {rule.wants}, got {v!r}")


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
    M: int = setting(3, integer(1))
    N: int = setting(3, integer(1))
    K: int = setting(3, integer(1))
    Nt: int = setting(3, integer(1))
    Pmax: float = setting(1.0, POSITIVE, key="pmax")
    # no key: a config file's gamma_db is the ExperimentSpec's list
    gamma_db: float = setting(30.0, FINITE, key=None)
    weights: np.ndarray | None = None
    assignment: np.ndarray | None = None
    L_in_max: int = setting(40, integer(1))
    L_out_max: int = setting(4, integer(1))
    lambda_min: float = setting(1e-10, POSITIVE)
    # relative weighted-sum-rate change that ends the inner and outer loops
    inner_tol: float = setting(1e-6, NONNEGATIVE)
    outer_tol: float = setting(1e-4, NONNEGATIVE)

    def __post_init__(self):
        check_settings(self)
        if self.M > 3:
            raise ConfigurationError(
                f"M must be 1..3, the cluster sizes the layout generator places; got M={self.M}")
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

def config_schema() -> dict:
    """Config-file key -> the field that declares it, over NetworkConfig and
    ExperimentSpec. Unknown keys are rejected."""
    from .experiments import ExperimentSpec    # experiments imports this module
    return {**setting_keys(NetworkConfig), **setting_keys(ExperimentSpec)}


def parse_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` text file into typed values.

    A comment runs from a ``#`` that opens the line or follows whitespace to
    the end of the line, so ``out = run#2.csv`` keeps its ``#``; blank and
    comment-only lines are ignored. Unknown keys, a key set twice and
    malformed values raise :class:`ConfigurationError` naming the key.
    """
    values: dict = {}
    set_on: dict = {}      # key -> the line that set it
    schema = config_schema()
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in schema:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in set_on:
            raise ConfigurationError(
                f"{path}:{lineno}: key '{key}' was already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            values[key] = parse_setting(schema[key], value.strip())
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
    return values


def parse_setting(f, text: str):
    """``text`` as the value of setting field ``f``, for config files and
    command-line flags alike; a malformed value raises
    :class:`ConfigurationError` naming the key."""
    try:
        return f.metadata["rule"].parse(text)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"malformed value for key '{f.metadata['key'] or f.name}': "
                                 f"{text!r} ({exc})") from None


def network_config_from_values(values: dict, gamma_db: float | None = None) -> NetworkConfig:
    """Build a NetworkConfig from parsed config values; the NetworkConfig
    defaults fill the gaps. ``gamma_db`` defaults to the file's first value."""
    kwargs = {f.name: values[key] for key, f in setting_keys(NetworkConfig).items()
              if key in values}
    if gamma_db is None and "gamma_db" in values:
        gamma_db = values["gamma_db"][0]
    if gamma_db is not None:
        kwargs["gamma_db"] = float(gamma_db)
    return NetworkConfig(**kwargs)
