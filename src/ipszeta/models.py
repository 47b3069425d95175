"""Two-site local operators and the named model families built from them.

A local operator is a 4x4 complex matrix of transition weights indexed as
``entries[2*k + l, 2*i + j]`` for an input site pair (i, j) and an output
pair (k, l).  The interaction leaves the right site unchanged, so every
weight with j != l vanishes; equivalently the matrix splits into two 2x2
blocks, one per value of the right site, each acting on the left site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULTS
from .errors import ConstraintViolation, DimensionMismatch, DomainError
from .serialize import matrix_from_pairs, matrix_pairs

TWO_PI = 2.0 * math.pi

MODEL_NAMES = ("dk", "gdk", "qca1", "qca2", "tensor", "custom")

# a packed pair index 2a+b has parity b, so the forbidden positions are
# exactly those where row and column parity disagree
_FORBIDDEN = np.array([[(r ^ c) & 1 for c in range(4)] for r in range(4)], dtype=bool)


def rotation(xi: float) -> np.ndarray:
    """Plane rotation [[cos, -sin], [sin, cos]] as a complex 2x2 matrix."""
    c, s = math.cos(xi), math.sin(xi)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def reflection(xi: float) -> np.ndarray:
    """Unitary reflection [[-sin, cos], [cos, sin]]; squares to the identity."""
    c, s = math.cos(xi), math.sin(xi)
    return np.array([[-s, c], [c, s]], dtype=np.complex128)


@dataclass(frozen=True)
class LocalOperator:
    """Validated 4x4 transition-weight matrix of a two-site update."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ConstraintViolation(f"local operator must be 4x4, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ConstraintViolation("local operator entries must be finite")
        bad = _FORBIDDEN & (m != 0)
        if bad.any():
            r, c = map(int, np.argwhere(bad)[0])
            raise ConstraintViolation(
                f"weight at row {r}, column {c} would change the right site"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def block_right0(self) -> np.ndarray:
        """2x2 action on the left site when the right site is 0."""
        return self.entries[np.ix_((0, 2), (0, 2))]

    @property
    def block_right1(self) -> np.ndarray:
        """2x2 action on the left site when the right site is 1."""
        return self.entries[np.ix_((1, 3), (1, 3))]

    def to_json(self) -> list:
        return matrix_pairs(self.entries)


@dataclass(frozen=True)
class TensorFactors:
    """2x2 factor pair whose Kronecker product is a local operator."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        for name in ("left", "right"):
            m = np.array(getattr(self, name), dtype=np.complex128)
            if m.shape != (2, 2):
                raise DimensionMismatch(f"{name} factor must be 2x2, got shape {m.shape}")
            if not np.all(np.isfinite(m)):
                raise DomainError(f"{name} factor entries must be finite")
            if not m.any():
                raise DomainError(f"{name} factor must not be the zero matrix")
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    def kron(self) -> np.ndarray:
        return np.kron(self.left, self.right)

    def to_json(self) -> dict:
        return {"left": matrix_pairs(self.left), "right": matrix_pairs(self.right)}


@dataclass(frozen=True)
class ModelClass:
    """Classification flags for a local operator."""

    is_pca: bool
    is_qca: bool
    is_ca: bool
    tensor_factorizable: bool
    factors: Optional[TensorFactors] = None

    def to_json(self) -> dict:
        return {
            "is_pca": self.is_pca,
            "is_qca": self.is_qca,
            "is_ca": self.is_ca,
            "tensor_factorizable": self.tensor_factorizable,
            "factors": self.factors.to_json() if self.factors is not None else None,
        }


@dataclass(frozen=True)
class ModelSpec:
    """Named model family plus its parameters.

    ``params`` holds plain numbers for the parametric families, a pair of
    2x2 matrices for ``tensor`` and one 4x4 matrix for ``custom``.
    """

    model: str
    params: tuple

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise DomainError(f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        object.__setattr__(self, "params", tuple(self.params))
        n_scalar = {"dk": 2, "gdk": 4, "qca1": 2, "qca2": 2}
        if self.model in n_scalar:
            if len(self.params) != n_scalar[self.model]:
                raise DomainError(
                    f"{self.model} takes {n_scalar[self.model]} parameters, got {len(self.params)}"
                )
            vals = tuple(float(p) for p in self.params)
            if not all(math.isfinite(v) for v in vals):
                raise DomainError(f"{self.model} parameters must be finite")
            if self.model == "dk" and not all(0.0 <= v <= 1.0 for v in vals):
                raise DomainError("dk probabilities must lie in [0, 1]")
            object.__setattr__(self, "params", vals)
        elif self.model == "tensor":
            if len(self.params) != 2:
                raise DomainError("tensor takes two 2x2 matrices")
        else:  # custom
            if len(self.params) != 1:
                raise DomainError("custom takes one 4x4 matrix")

    @classmethod
    def dk(cls, p: float, q: float) -> "ModelSpec":
        return cls("dk", (p, q))

    @classmethod
    def generalized_dk(cls, xi1: float, xi2: float, xi3: float, xi4: float) -> "ModelSpec":
        return cls("gdk", (xi1, xi2, xi3, xi4))

    @classmethod
    def qca1(cls, xi1: float, xi2: float) -> "ModelSpec":
        return cls("qca1", (xi1, xi2))

    @classmethod
    def qca2(cls, xi1: float, xi2: float) -> "ModelSpec":
        return cls("qca2", (xi1, xi2))

    @classmethod
    def tensor(cls, left, right) -> "ModelSpec":
        return cls("tensor", (np.asarray(left, dtype=np.complex128),
                              np.asarray(right, dtype=np.complex128)))

    @classmethod
    def custom(cls, matrix) -> "ModelSpec":
        return cls("custom", (np.asarray(matrix, dtype=np.complex128),))

    @classmethod
    def from_json(cls, obj: dict) -> "ModelSpec":
        try:
            model = obj["model"]
            params = obj["params"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"model JSON needs 'model' and 'params' keys: {exc}")
        if model in ("dk", "gdk", "qca1", "qca2"):
            try:
                return cls(model, tuple(float(p) for p in params))
            except TypeError:
                raise DomainError(f"{model} params must be numbers, got {params!r}")
        if model == "tensor":
            if len(params) != 2:
                raise DomainError("tensor params must be two matrices")
            return cls.tensor(matrix_from_pairs(params[0], 2, 2),
                              matrix_from_pairs(params[1], 2, 2))
        if model == "custom":
            return cls.custom(matrix_from_pairs(params, 4, 4))
        raise DomainError(f"unknown model {model!r}")

    def to_json(self) -> dict:
        if self.model in ("dk", "gdk", "qca1", "qca2"):
            params = list(self.params)
        elif self.model == "tensor":
            params = [matrix_pairs(self.params[0]), matrix_pairs(self.params[1])]
        else:
            params = matrix_pairs(self.params[0])
        return {"model": self.model, "params": params}


def _reduce(xi: float) -> float:
    # all formulas are 2pi-periodic; any real angle is accepted and reduced
    return float(xi) % TWO_PI


def build_local(spec: ModelSpec) -> LocalOperator:
    """Assemble the 4x4 matrix of a named model family.

    ``custom`` matrices are validated against the fixed-right-site zero
    pattern; ``tensor`` products get the same validation after the
    Kronecker product, which rejects non-diagonal right factors.
    """
    if spec.model == "dk":
        p, q = spec.params
        m = np.array([
            [1.0, 0.0, 1.0 - p, 0.0],
            [0.0, 1.0 - p, 0.0, 1.0 - q],
            [0.0, 0.0, p, 0.0],
            [0.0, p, 0.0, q],
        ], dtype=np.complex128)
    elif spec.model == "gdk":
        x1, x2, x3, x4 = (_reduce(x) for x in spec.params)
        c = [math.cos(x) ** 2 for x in (x1, x2, x3, x4)]
        s = [math.sin(x) ** 2 for x in (x1, x2, x3, x4)]
        m = np.array([
            [c[0], 0.0, s[2], 0.0],
            [0.0, s[1], 0.0, c[3]],
            [s[0], 0.0, c[2], 0.0],
            [0.0, c[1], 0.0, s[3]],
        ], dtype=np.complex128)
    elif spec.model == "qca1":
        x1, x2 = (_reduce(x) for x in spec.params)
        c1, s1 = math.cos(x1), math.sin(x1)
        c2, s2 = math.cos(x2), math.sin(x2)
        m = np.array([
            [c1, 0.0, -s1, 0.0],
            [0.0, c2, 0.0, -s2],
            [s1, 0.0, c1, 0.0],
            [0.0, s2, 0.0, c2],
        ], dtype=np.complex128)
    elif spec.model == "qca2":
        x1, x2 = (_reduce(x) for x in spec.params)
        c1, s1 = math.cos(x1), math.sin(x1)
        c2, s2 = math.cos(x2), math.sin(x2)
        m = np.array([
            [c1, 0.0, -s1, 0.0],
            [0.0, -s2, 0.0, c2],
            [s1, 0.0, c1, 0.0],
            [0.0, c2, 0.0, s2],
        ], dtype=np.complex128)
    elif spec.model == "tensor":
        m = TensorFactors(spec.params[0], spec.params[1]).kron()
    else:
        m = np.asarray(spec.params[0], dtype=np.complex128)
    return LocalOperator(m)


def classify(op: LocalOperator, tol: float = DEFAULTS.classify_tol) -> ModelClass:
    """Total classification of a local operator; never raises."""
    m = op.entries
    in_range = (m.real >= -tol) & (m.real <= 1.0 + tol) & (np.abs(m.imag) <= tol)
    columns_ok = np.abs(m.sum(axis=0) - 1.0) <= tol
    is_pca = bool(in_range.all() and columns_ok.all())
    gram = m.conj().T @ m
    is_qca = bool(np.max(np.abs(gram - np.eye(4))) <= tol)
    is_ca = bool(np.all((np.abs(m) <= tol) | (np.abs(m - 1.0) <= tol)))
    factors = factor_tensor(op, tol)
    return ModelClass(is_pca, is_qca, is_ca, factors is not None, factors)


def factor_tensor(op: LocalOperator, tol: float = DEFAULTS.classify_tol) -> Optional[TensorFactors]:
    """Split a local operator into (left 2x2) kron (diagonal right 2x2).

    The split exists exactly when the two right-site blocks of the
    operator are proportional.  The scale gauge fixes the right factor's
    leading diagonal entry to 1 (the (0,0) entry when its block is
    nonzero, the (1,1) entry otherwise), which makes round-trips
    deterministic.  Returns None when no factorization reproduces the
    operator within ``tol``.
    """
    b0 = op.block_right0
    b1 = op.block_right1
    if not b0.any() and not b1.any():
        return None  # the zero operator has no nonzero factor pair
    if b0.any():
        left = np.array(b0)
        scale = np.vdot(b0, b1) / np.vdot(b0, b0)  # least-squares b1 ~ scale*b0
        e, h = 1.0 + 0.0j, complex(scale)
    else:
        left = np.array(b1)
        e, h = 0.0j, 1.0 + 0.0j
    right = np.array([[e, 0.0], [0.0, h]], dtype=np.complex128)
    if np.max(np.abs(np.kron(left, right) - op.entries)) > tol:
        return None
    return TensorFactors(left, right)
