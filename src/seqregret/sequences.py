"""Bounded signals and the parametric feature classes evaluated on them.

A predictor class is described by a :class:`FeatureSpec`; at each step t it
turns the recent history of a :class:`BoundedSequence` into a length-m feature
vector.  Missing history (sample indices < 1) contributes zeros, which keeps
every recursion downstream uniform from the very first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# A monomial is a sorted tuple of (lag, exponent) pairs, e.g. ((1, 1), (2, 2))
# for x[t-1] * x[t-2]^2.  Lags and exponents are positive integers.
Monomial = tuple[tuple[int, int], ...]


class ClassKind(Enum):
    """Which parametric family the feature vector comes from."""

    UNIVARIATE_POLY = "univar"
    LINEAR_LAG = "linear"
    MONOMIALS = "monomial"


@dataclass(frozen=True)
class BoundedSequence:
    """A finite real signal together with its declared amplitude bound.

    Every sample must satisfy |x| <= bound_A exactly (tolerance zero); the
    bound is the quantity all regret envelopes and adversarial generators are
    scaled by, so it is validated at construction rather than trusted.
    """

    values: np.ndarray
    bound_A: float

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("sequence values must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sequence values must be finite")
        bound = float(self.bound_A)
        # zero is legal (the all-zero signal declares A = 0); negatives are not
        if not (math.isfinite(bound) and bound >= 0):
            raise ValueError(f"amplitude bound must be nonnegative and finite, got {bound!r}")
        if vals.size and float(np.max(np.abs(vals))) > bound:
            worst = float(np.max(np.abs(vals)))
            raise ValueError(f"sample magnitude {worst} exceeds declared bound {bound}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "bound_A", bound)

    def __len__(self) -> int:
        return int(self.values.size)

    def prefix(self, n: int) -> "BoundedSequence":
        """First n samples under the same bound."""
        return BoundedSequence(self.values[:n], self.bound_A)


@dataclass(frozen=True)
class FeatureSpec:
    """A parametric predictor class: which features, how many, how far back.

    Fields
    ------
    class_kind:  family selector (see :class:`ClassKind`).
    order_m:     number of features / parameters.
    lookahead_k: gap between the newest usable sample and the predicted one
                 (> 1 only for the linear-lag family).
    memory_a:    how far back features reach; derived, not user-supplied.
    monomials:   exponent patterns, only for the monomial family.
    """

    class_kind: ClassKind
    order_m: int
    lookahead_k: int = 1
    monomials: tuple[Monomial, ...] = ()
    memory_a: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.order_m < 1:
            raise ValueError("order_m must be >= 1")
        if self.lookahead_k < 1:
            raise ValueError("lookahead_k must be >= 1")
        if self.class_kind is not ClassKind.LINEAR_LAG and self.lookahead_k != 1:
            raise ValueError("lookahead_k > 1 is only defined for the linear-lag class")
        if self.class_kind is ClassKind.MONOMIALS:
            if len(self.monomials) != self.order_m:
                raise ValueError("monomial class needs exactly order_m exponent patterns")
            for mono in self.monomials:
                if not mono:
                    raise ValueError("empty monomial (total degree must be >= 1)")
                for lag, exp in mono:
                    if lag < 1 or exp < 1:
                        raise ValueError(f"monomial terms need lag >= 1 and exponent >= 1, got {(lag, exp)}")
                if len({lag for lag, _ in mono}) != len(mono):
                    raise ValueError("duplicate lag inside one monomial; merge exponents instead")
            memory = max(lag for mono in self.monomials for lag, _ in mono)
        elif self.monomials:
            raise ValueError("monomials are only meaningful for the monomial class")
        elif self.class_kind is ClassKind.UNIVARIATE_POLY:
            memory = 1
        else:  # LINEAR_LAG
            memory = self.lookahead_k + self.order_m - 1
        object.__setattr__(self, "memory_a", memory)

    @property
    def label(self) -> str:
        return self.class_kind.value


def univariate_poly(m: int) -> FeatureSpec:
    """Powers of the previous sample: features x[t-1]^i, i = 1..m."""
    return FeatureSpec(ClassKind.UNIVARIATE_POLY, order_m=m)


def linear_lag(k: int, m: int) -> FeatureSpec:
    """m consecutive samples ending k steps back: [x[t-k], ..., x[t-k-m+1]]."""
    return FeatureSpec(ClassKind.LINEAR_LAG, order_m=m, lookahead_k=k)


def monomial_features(monomials) -> FeatureSpec:
    """One feature per monomial; each monomial maps lags to exponents.

    Accepts dicts like ``{1: 1, 2: 2}`` (x[t-1] * x[t-2]^2) or pre-built
    (lag, exponent) tuples.
    """
    normalized: list[Monomial] = []
    for mono in monomials:
        pairs = sorted(mono.items()) if isinstance(mono, dict) else sorted(tuple(p) for p in mono)
        normalized.append(tuple((int(lag), int(exp)) for lag, exp in pairs))
    return FeatureSpec(ClassKind.MONOMIALS, order_m=len(normalized), monomials=tuple(normalized))


def monomial_degree(mono: Monomial) -> int:
    return sum(exp for _, exp in mono)


def normalization_constant(spec: FeatureSpec, bound_A: float) -> float:
    """Worst-case feature magnitude M = max_j sup_{|x| <= A} |feature_j|.

    Computed analytically from the degree structure: a degree-d monomial in
    samples bounded by A attains A^d, so the class constant is the largest
    such power over coordinates.
    """
    if not bound_A > 0:
        raise ValueError("bound_A must be positive")
    A = float(bound_A)
    if spec.class_kind is ClassKind.UNIVARIATE_POLY:
        return max(A ** i for i in range(1, spec.order_m + 1))
    if spec.class_kind is ClassKind.LINEAR_LAG:
        return A
    return max(A ** monomial_degree(mono) for mono in spec.monomials)


def features(spec: FeatureSpec, seq: BoundedSequence, t: int) -> np.ndarray:
    """Feature vector the class evaluates when predicting step t (1-based).

    Valid for 1 <= t <= len(seq) + 1; sample indices < 1 contribute 0.
    """
    n = len(seq)
    if not 1 <= t <= n + 1:
        raise ValueError(f"step t={t} outside valid range [1, {n + 1}]")

    def sample(idx: int) -> float:
        return float(seq.values[idx - 1]) if idx >= 1 else 0.0

    if spec.class_kind is ClassKind.UNIVARIATE_POLY:
        base = sample(t - 1)
        return np.array([base ** i for i in range(1, spec.order_m + 1)])
    if spec.class_kind is ClassKind.LINEAR_LAG:
        k = spec.lookahead_k
        return np.array([sample(t - k - i) for i in range(spec.order_m)])
    out = np.empty(spec.order_m)
    for j, mono in enumerate(spec.monomials):
        acc = 1.0
        for lag, exp in mono:
            acc *= sample(t - lag) ** exp
        out[j] = acc
    return out


def feature_matrix(spec: FeatureSpec, seq: BoundedSequence) -> np.ndarray:
    """All feature vectors for t = 1..n stacked into an (n, m) matrix.

    Vectorized equivalent of calling :func:`features` per step (asserted
    equal in tests); the online and batch runners share it.
    """
    n = len(seq)
    pad = spec.memory_a + (spec.lookahead_k if spec.class_kind is ClassKind.LINEAR_LAG else 1)
    padded = np.concatenate([np.zeros(pad), seq.values])

    def shifted(lag: int) -> np.ndarray:
        # column of x[t - lag] for t = 1..n, zero before the first sample
        start = pad - lag
        return padded[start:start + n]

    if spec.class_kind is ClassKind.UNIVARIATE_POLY:
        base = shifted(1)
        return base[:, None] ** np.arange(1, spec.order_m + 1)[None, :]
    if spec.class_kind is ClassKind.LINEAR_LAG:
        k = spec.lookahead_k
        cols = [shifted(k + i) for i in range(spec.order_m)]
        return np.stack(cols, axis=1)
    cols = []
    for mono in spec.monomials:
        acc = np.ones(n)
        for lag, exp in mono:
            acc = acc * shifted(lag) ** exp
        cols.append(acc)
    return np.stack(cols, axis=1)
