"""Two-site local operators and the named model families built from them.

A local operator is a 4x4 matrix of transition weights indexed as
``entries[2*k + l, 2*i + j]`` for an input site pair (i, j) and an output
pair (k, l).  The interaction leaves the right site unchanged, so every
weight with j != l vanishes; equivalently the matrix splits into two 2x2
blocks, one per value of the right site, each acting on the left site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .config import DEFAULTS
from .errors import ConstraintViolation, DimensionMismatch, DomainError
from .serialize import matrix_from_pairs, matrix_pairs, real_number

# a packed pair index 2a+b has parity b: the rows and columns of the block
# for right site b, and the forbidden positions where the parities disagree
_RIGHT_SITE = ((0, 2), (1, 3))
_FORBIDDEN = np.array([[(r ^ c) & 1 for c in range(4)] for r in range(4)], dtype=bool)


def rotation(xi: float) -> np.ndarray:
    """Plane rotation [[cos, -sin], [sin, cos]] as a real 2x2 matrix."""
    c, s = math.cos(xi), math.sin(xi)
    return np.array([[c, -s], [s, c]])


def reflection(xi: float) -> np.ndarray:
    """Unitary reflection [[-sin, cos], [cos, sin]]; squares to the identity."""
    c, s = math.cos(xi), math.sin(xi)
    return np.array([[-s, c], [c, s]])


def _gdk_blocks(*xi: float) -> tuple:
    c0, c1, c2, c3 = (math.cos(x) ** 2 for x in xi)
    s0, s1, s2, s3 = (math.sin(x) ** 2 for x in xi)
    return [[c0, s2], [s0, c2]], [[s1, c3], [c1, s3]]


class _Family(NamedTuple):
    n_params: int
    probabilities: bool  # parameters in [0, 1]; otherwise angles, taken mod 2pi
    blocks: Callable[..., tuple]  # parameters -> (block at right site 0, at right site 1)


# the parametric families, each as its two right-site blocks
_FAMILIES = {
    "dk": _Family(2, True, lambda p, q: ([[1.0, 1.0 - p], [0.0, p]], [[1.0 - p, 1.0 - q], [p, q]])),
    "gdk": _Family(4, False, _gdk_blocks),
    "qca1": _Family(2, False, lambda x1, x2: (rotation(x1), rotation(x2))),
    "qca2": _Family(2, False, lambda x1, x2: (rotation(x1), reflection(x2))),
}

MODEL_NAMES = (*_FAMILIES, "tensor", "custom")


def _complex_matrix(name: str, value) -> np.ndarray:
    """A complex128 copy of ``value``; a boolean array is refused with DomainError."""
    m = np.asarray(value)
    if m.dtype == np.bool_:
        raise DomainError(f"{name} entries must be numbers, got a boolean array")
    return m.astype(np.complex128)


@dataclass(frozen=True, eq=False)
class LocalOperator:
    """Validated 4x4 transition-weight matrix of a two-site update."""

    entries: np.ndarray

    def __post_init__(self):
        m = _complex_matrix("local operator", self.entries)
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
        # the one home of the number format: float64 unless an entry is complex
        if not m.imag.any():
            m = m.real.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_blocks(cls, right0, right1) -> "LocalOperator":
        """Acts on the left site by ``right0`` when the right site is 0, else by ``right1``."""
        blocks = [np.asarray(b) for b in (right0, right1)]
        if any(b.shape != (2, 2) for b in blocks):
            raise ConstraintViolation(f"blocks must be 2x2, got shapes {[b.shape for b in blocks]}")
        m = np.zeros((4, 4), dtype=np.result_type(*blocks))
        for rows, block in zip(_RIGHT_SITE, blocks):
            m[np.ix_(rows, rows)] = block
        return cls(m)

    @property
    def block_right0(self) -> np.ndarray:
        """2x2 action on the left site when the right site is 0."""
        return self.entries[np.ix_(_RIGHT_SITE[0], _RIGHT_SITE[0])]

    @property
    def block_right1(self) -> np.ndarray:
        """2x2 action on the left site when the right site is 1."""
        return self.entries[np.ix_(_RIGHT_SITE[1], _RIGHT_SITE[1])]


@dataclass(frozen=True, eq=False)
class TensorFactors:
    """2x2 factor pair whose Kronecker product is a local operator."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        for name in ("left", "right"):
            m = _complex_matrix(f"{name} factor", getattr(self, name))
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
        family = _FAMILIES.get(self.model)
        if family is not None:
            try:
                vals = tuple(real_number(p) for p in self.params)
            except (TypeError, ValueError, DomainError):
                raise DomainError(f"{self.model} params must be numbers, got {self.params!r}")
            if len(vals) != family.n_params:
                raise DomainError(
                    f"{self.model} takes {family.n_params} parameters, got {len(vals)}"
                )
            if not all(math.isfinite(v) for v in vals):
                raise DomainError(f"{self.model} parameters must be finite")
            if family.probabilities and not all(0.0 <= v <= 1.0 for v in vals):
                raise DomainError(f"{self.model} probabilities must lie in [0, 1]")
            object.__setattr__(self, "params", vals)
            return
        object.__setattr__(self, "params", tuple(self.params))
        if self.model == "tensor":
            if len(self.params) != 2:
                raise DomainError("tensor takes two 2x2 matrices")
        elif len(self.params) != 1:  # custom
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
        return cls("tensor", (np.asarray(left), np.asarray(right)))

    @classmethod
    def custom(cls, matrix) -> "ModelSpec":
        return cls("custom", (np.asarray(matrix),))

    @classmethod
    def from_json(cls, obj: dict) -> "ModelSpec":
        try:
            model = obj["model"]
            params = obj["params"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"model JSON needs 'model' and 'params' keys: {exc}")
        if model == "tensor":
            if not isinstance(params, (list, tuple)) or len(params) != 2:
                raise DomainError("tensor params must be two matrices")
            return cls.tensor(*(matrix_from_pairs(m, 2, 2) for m in params))
        if model == "custom":
            return cls.custom(matrix_from_pairs(params, 4, 4))
        return cls(model, params)

    def to_json(self) -> dict:
        if self.model in _FAMILIES:
            params = list(self.params)
        elif self.model == "tensor":
            params = [matrix_pairs(self.params[0]), matrix_pairs(self.params[1])]
        else:
            params = matrix_pairs(self.params[0])
        return {"model": self.model, "params": params}


def build_local(spec: ModelSpec) -> LocalOperator:
    """Assemble the 4x4 matrix of a named model family.

    A parametric family is assembled from its two right-site blocks, its
    angles reduced mod 2pi first.  ``custom`` matrices are validated against
    the fixed-right-site zero pattern; ``tensor`` products get the same
    validation after the Kronecker product, which rejects non-diagonal
    right factors.
    """
    family = _FAMILIES.get(spec.model)
    if family is not None:
        params = spec.params if family.probabilities else (x % math.tau for x in spec.params)
        return LocalOperator.from_blocks(*family.blocks(*params))
    if spec.model == "tensor":
        return LocalOperator(TensorFactors(spec.params[0], spec.params[1]).kron())
    return LocalOperator(spec.params[0])


# an overflow near the float limit fails the test that met it, silently
@np.errstate(over="ignore", invalid="ignore")
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


@np.errstate(over="ignore", invalid="ignore")
def factor_tensor(op: LocalOperator, tol: float = DEFAULTS.classify_tol) -> Optional[TensorFactors]:
    """Split a local operator into (left 2x2) kron (diagonal right 2x2).

    The split exists exactly when the two right-site blocks of the
    operator are proportional.  The scale gauge fixes the right factor's
    leading diagonal entry to 1 (the (0,0) entry when its block is
    nonzero, the (1,1) entry otherwise), which makes round-trips
    deterministic.  Returns None, never raises, when no finite factor
    pair reproduces the operator within ``tol``.
    """
    b0 = op.block_right0
    b1 = op.block_right1
    if not b0.any() and not b1.any():
        return None  # the zero operator has no nonzero factor pair
    if b0.any():
        left = np.array(b0)
        # least-squares b1 ~ scale*b0 on both blocks divided by b0's largest
        # magnitude, so no product overflows unless the scale itself does
        peak = np.max(np.abs(b0))
        scale = np.vdot(b0 / peak, b1 / peak) / np.vdot(b0 / peak, b0 / peak)
        e, h = 1.0 + 0.0j, complex(scale)
    else:
        left = np.array(b1)
        e, h = 0.0j, 1.0 + 0.0j
    right = np.array([[e, 0.0], [0.0, h]])
    if not np.max(np.abs(np.kron(left, right) - op.entries)) <= tol:  # also NaN
        return None
    return TensorFactors(left, right)
