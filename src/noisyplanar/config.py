"""Experiment configuration: validation, derived rules, JSON round-tripping."""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field, fields

from .coding import DEFAULT_DECODE_CAP, MAX_DECODE_CAP, LinkSimConfig, smallest_odd_at_least
from .geometry import derive_params
from .intercell import count_bits_for

__all__ = ["ConfigError", "ExperimentConfig"]

PROTOCOLS = ("max", "hist")
MODES = ("repetition", "treecode", "abstract")
BIT_SOURCES = ("all-zero", "all-one", "bernoulli", "single-one-at-random", "explicit")


class ConfigError(ValueError):
    """An experiment configuration that cannot be run."""


def _integers(key: str, value) -> tuple[int, ...]:
    """A sequence of integers as a tuple of ints; anything else names the key."""
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise ConfigError(f"{key} must be a list of integers, got {value!r}")
    for v in value:
        if not isinstance(v, numbers.Integral):
            raise ConfigError(f"{key} must hold integers only, got {v!r}")
    return tuple(int(v) for v in value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; echoed verbatim into every report.

    Per-network constants left as None follow the built-in rules:
    r2 and r3 are the smallest odd integers >= 3 ln n, the identity code
    block length is 4 * ceil(log2 n), and arrays span ceil(ln n) levels.
    Trial seeds derive from (base_seed, n, trial, resample), so reports are
    reproducible bit for bit.
    """

    protocol: str = "max"
    n: tuple[int, ...] = (2000,)
    trials: int = 20
    base_seed: int = 1
    eps0: float = 0.0
    delta: float = 0.5
    mode: str = "abstract"
    bit_source: str = "bernoulli"
    bit_p: float = 0.5
    bits: tuple[int, ...] | None = None
    eps1: float = 0.05
    c_rep: int = 9
    r2: int | None = None
    l1: int | None = None
    r3: int | None = None
    gamma: float = 0.5
    k_rs: float = 3.0
    d_max: int = DEFAULT_DECODE_CAP
    l_sub: int | None = None
    alphabet: int = 4
    treecode_pad: int = 6
    treecode_seed: int = 2025
    code_seed: int = 404
    e_t: float = 1.0
    e_r: float = 0.1
    max_resamples: int = 50

    def __post_init__(self):
        for name in ("n", "bits"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _integers(name, value))
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            v, key = getattr(self, f.name), f.name.replace("_", "-")
            if f.type in ("int", "int | None") and not isinstance(v, numbers.Integral | None):
                raise ConfigError(f"{key} must be an integer, got {v!r}")
            if f.type == "float" and not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise ConfigError(f"{key} must be a finite number, got {v!r}")
            if key.endswith("seed") and v < 0:
                raise ConfigError(f"{key} must be >= 0, got {v}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.bit_source not in BIT_SOURCES:
            raise ConfigError(f"bit-source must be one of {BIT_SOURCES}, got {self.bit_source!r}")
        if not self.n or any(v < 3 for v in self.n):
            raise ConfigError(f"every n must be >= 3, got {self.n}")
        if len(set(self.n)) < len(self.n):
            raise ConfigError(f"every n must be distinct, got {self.n}")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if not (0.0 <= self.eps0 < 0.5):
            raise ConfigError(f"eps0 must lie in [0, 0.5), got {self.eps0}")
        if self.delta < 0:
            raise ConfigError("delta must be >= 0")
        if not (0.0 < self.eps1 < 1.0):
            raise ConfigError("eps1 must lie in (0, 1)")
        if not (0.0 <= self.bit_p <= 1.0):
            raise ConfigError("bit-p must lie in [0, 1]")
        if self.bit_source == "explicit":
            if self.bits is None:
                raise ConfigError("bit-source 'explicit' requires bits")
            if len(self.n) != 1 or len(self.bits) != self.n[0]:
                raise ConfigError("explicit bits require a single n matching their length")
            if any(b not in (0, 1) for b in self.bits):
                raise ConfigError("explicit bits must be 0/1")
        elif self.bits is not None:
            raise ConfigError(f"bits need bit-source 'explicit', got {self.bit_source!r}")
        for name in ("c_rep", "r2", "r3"):
            v = getattr(self, name)
            if v is not None and (v < 1 or v % 2 == 0):
                raise ConfigError(f"{name} must be odd and positive, got {v}")
        if self.l1 is not None and self.l1 < 1:
            raise ConfigError("l1 must be positive")
        if self.l_sub is not None and self.l_sub < 1:
            raise ConfigError("l-sub must be positive")
        if self.treecode_pad < 0:
            raise ConfigError(f"treecode-pad must be >= 0, got {self.treecode_pad}")
        if not 1 <= self.d_max <= MAX_DECODE_CAP:
            raise ConfigError(f"d-max must lie in 1..{MAX_DECODE_CAP}, got {self.d_max}")
        if self.gamma <= 0 or self.k_rs < 1:
            raise ConfigError("gamma must be > 0 and k-rs >= 1")
        if self.mode == "abstract":
            for n in self.n:
                # An abstract array charges ceil(k_rs * rounds) slots; no array
                # has more hops than the grid has rows, nor more rounds than its
                # hops plus the histogram's count bits (sweeps price both protocols).
                hops = derive_params(n, self.delta).grid_dim - 1
                rounds = min(self.l_sub or math.ceil(math.log(n)), hops) + count_bits_for(n)
                if not math.isfinite(self.k_rs * rounds):
                    raise ConfigError(
                        f"k-rs * {rounds} rounds must be finite at n={n}, got k-rs {self.k_rs}"
                    )
        if self.e_t < 0 or self.e_r < 0:
            raise ConfigError("energies must be nonnegative")
        if self.max_resamples < 0:
            raise ConfigError("max-resamples must be >= 0")

    # Per-network rules.
    def r3_for(self, n: int) -> int:
        return self.r3 if self.r3 is not None else smallest_odd_at_least(3.0 * math.log(n))

    def link_config_for(self, n: int) -> LinkSimConfig:
        return LinkSimConfig(
            mode=self.mode,
            r3=self.r3_for(n),
            gamma=self.gamma,
            k_rs=self.k_rs,
            d_max=self.d_max,
            alphabet=self.alphabet,
            treecode_pad=self.treecode_pad,
            treecode_seed=self.treecode_seed,
        )

    def to_dict(self) -> dict:
        """Kebab-case dict, the exact shape accepted by --config files."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            out[f.name.replace("_", "-")] = v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for key, value in data.items():
            name = key.replace("-", "_")
            if name not in known:
                raise ConfigError(f"unknown config key {key!r}")
            if name == "n" and isinstance(value, (int, float)):
                value = [value]
            kwargs[name] = value
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:  # a value of the wrong type, e.g. "n": "abc"
            raise ConfigError(str(exc)) from exc
