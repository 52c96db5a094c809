"""Named 3-dimensional Lie algebras, Heisenberg algebras, and closed-form oracles.

The seven three-dimensional families carry the standard labels
``L(3,-1), L(3,1), L(3,2,x), L(3,3), L(3,4,x), L(3,5), L(3,6)`` of the
classification of real 3-dimensional Lie algebras; ``L(3,1)`` is the
Heisenberg algebra, ``L(3,5)`` is sl(2,R) and ``L(3,6)`` is su(2).

Besides the constructors, this module transcribes the known closed forms
for these families -- the connection endomorphism ``A`` of the invariant
spinor, its skew part, its eigenvalues where available, and the Ricci
matrix in the symmetric case -- as an oracle layer.  The general pipeline
(connection + solver) must reproduce these, never the other way around.
Each is elementwise in the frame entries ``(alpha, beta, gamma; 0, epsilon, zeta;
0, 0, iota)`` or the structure constants, so it takes one ``(3, 3)`` frame or
``(3, 3, 3)`` tensor, or a stack of them, and keeps the leading axes.  The
Heisenberg closed forms (``heisenberg_ortho_c``, ``heisenberg_spectrum``) take
parameter stacks ``a, b: (..., n)`` and ``c: (...)`` in the same way;
``heisenberg_params`` validates one parameter set, and ``heisenberg_metric`` builds
its metric algebra.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra, MetricLieAlgebra
from .clifford import check_slots
from .errors import InvalidParameterError, UnsupportedDimensionError

FAMILY_TAGS = ("L3(-1)", "L3(1)", "L3(2,x)", "L3(3)", "L3(4,x)", "L3(5)", "L3(6)")
_PARAMETRIC = {"L3(2,x)", "L3(4,x)"}

_NAME_RE = re.compile(r"^L3\(\s*(-?\d+)\s*(?:,\s*([^)]+)\s*)?\)$")


@dataclass(frozen=True)
class BianchiFamily:
    """One of the seven 3-dimensional families, with parameter where needed.

    ``x`` must be finite; ``L3(2,x)`` requires ``0 < |x| <= 1`` and
    ``L3(4,x)`` requires ``x >= 0``; the other five take no parameter.  A ``(G, 1)``
    column ``x``, each entry checked, gives ``G`` families to ``(G, N, 3, 3)`` frames.
    """

    tag: str
    x: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in FAMILY_TAGS:
            raise InvalidParameterError(f"unknown family tag {self.tag!r}")
        if self.tag in _PARAMETRIC:
            if self.x is None:
                raise InvalidParameterError(f"{self.tag} requires a parameter x")
            if not np.all(np.isfinite(self.x)):
                raise InvalidParameterError(f"{self.tag} requires a finite x, got x={self.x}")
            if self.tag == "L3(2,x)" and not np.all((0 < abs(self.x)) & (abs(self.x) <= 1)):
                raise InvalidParameterError(
                    f"L3(2,x) requires 0 < |x| <= 1, got x={self.x}"
                )
            if self.tag == "L3(4,x)" and np.any(self.x < 0):
                raise InvalidParameterError(f"L3(4,x) requires x >= 0, got x={self.x}")
        elif self.x is not None:
            raise InvalidParameterError(f"{self.tag} takes no parameter")

    @classmethod
    def parse(cls, name: str) -> "BianchiFamily":
        """Parse a CLI name such as ``"L3(1)"`` or ``"L3(2,-0.5)"``."""
        m = _NAME_RE.match(name.strip())
        if not m:
            raise InvalidParameterError(f"cannot parse family name {name!r}")
        kind, xs = m.group(1), m.group(2)
        if kind in ("-1", "1", "3", "5", "6"):
            if xs is not None:
                raise InvalidParameterError(f"L3({kind}) takes no parameter")
            return cls(f"L3({kind})")
        if kind in ("2", "4"):
            if xs is None:
                raise InvalidParameterError(f"L3({kind},x) requires a parameter")
            try:
                x = float(xs)
            except ValueError as exc:
                raise InvalidParameterError(f"bad parameter {xs!r}") from exc
            return cls(f"L3({kind},x)", x)
        raise InvalidParameterError(f"unknown family L3({kind})")

    @property
    def label(self) -> str:
        if self.tag in _PARAMETRIC:
            return self.tag.replace("x", format(self.x, "g"))
        return self.tag


def make_bianchi(family: BianchiFamily) -> LieAlgebra:
    """Structure constants of the family in its classification basis."""
    x = family.x
    brackets: dict[tuple[int, int], dict[int, float]]
    if family.tag == "L3(-1)":
        brackets = {(1, 2): {1: 1.0}}
    elif family.tag == "L3(1)":
        brackets = {(2, 3): {1: 1.0}}
    elif family.tag == "L3(2,x)":
        brackets = {(1, 3): {1: 1.0}, (2, 3): {2: x}}
    elif family.tag == "L3(3)":
        brackets = {(1, 3): {1: 1.0}, (2, 3): {1: 1.0, 2: 1.0}}
    elif family.tag == "L3(4,x)":
        brackets = {(1, 3): {1: x, 2: -1.0}, (2, 3): {1: 1.0, 2: x}}
    elif family.tag == "L3(5)":
        brackets = {(1, 2): {1: 1.0}, (1, 3): {2: -2.0}, (2, 3): {3: 1.0}}
    else:  # L3(6)
        brackets = {(1, 2): {3: 1.0}, (1, 3): {2: -1.0}, (2, 3): {1: 1.0}}
    return LieAlgebra.from_brackets(3, brackets)


def make_heisenberg(n: int) -> LieAlgebra:
    """The (2n+1)-dimensional Heisenberg algebra.

    Basis order ``(Z, E_1, F_1, ..., E_n, F_n)``; the only nonzero brackets
    are ``[E_p, F_p] = Z``, so the centre is spanned by the first vector.
    """
    if n < 1:
        raise InvalidParameterError(f"Heisenberg index must be >= 1, got {n}")
    check_slots(n)  # every analysis needs its n-slot spinors; refuse before the dense tensor
    brackets = {(2 * p, 2 * p + 1): {1: 1.0} for p in range(1, n + 1)}
    return LieAlgebra.from_brackets(2 * n + 1, brackets)


def heisenberg_params(n: int, a=None, b=None, c=1.0) -> tuple[np.ndarray, np.ndarray, float]:
    """Validated diagonal metric parameters on the Heisenberg algebra: float ``a, b: (n,)``
    and a float ``c``.

    ``a[p-1]`` and ``b[p-1]`` are the squared norms of ``E_p`` and ``F_p``
    in the defining basis, ``c`` the squared norm of the centre vector; the
    defaults are the eigenvalue-separating choice ``a_p = p^2``, ``b_p = c = 1``.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    a = np.arange(1, n + 1, dtype=float) ** 2 if a is None else np.asarray(a, dtype=float)
    b = np.ones(n) if b is None else np.asarray(b, dtype=float)
    c = float(c)
    if a.shape != (n,) or b.shape != (n,):
        raise InvalidParameterError("a and b must each have n entries")
    vals = np.r_[c, a, b]
    if not np.all((vals > 0.0) & (vals < np.inf)):
        raise InvalidParameterError("Heisenberg metric parameters must be positive and finite")
    with np.errstate(all="ignore"):
        ratios = np.float64(c) / (a * b)
    if not np.all((ratios > 0.0) & (ratios < np.inf)):
        raise InvalidParameterError(
            "Heisenberg metric parameters out of floating-point range: "
            "every c / (a_p b_p) must be positive and finite"
        )
    return a, b, c


def heisenberg_metric(n: int, a=None, b=None, c=1.0) -> MetricLieAlgebra:
    """Metric Heisenberg algebra with orthonormal frame ``(Z, E_p, F_p)``.

    The parameters are those of ``heisenberg_params``.  The Gram matrix is
    ``diag(c, a_1, b_1, ..., a_n, b_n)``, so the frame scales each basis vector
    by the reciprocal square root; the structure constants are
    ``heisenberg_ortho_c`` of the parameters.
    """
    check_slots(n)  # before the default parameters, which hold n entries each
    a, b, c = heisenberg_params(n, a, b, c)
    diag = np.r_[c, np.column_stack([a, b]).ravel()]
    return MetricLieAlgebra(
        make_heisenberg(n), np.diag(diag), np.diag(1.0 / np.sqrt(diag)), heisenberg_ortho_c(a, b, c)
    )


def _heisenberg_coeff(a, b, c) -> np.ndarray:
    """``sqrt(c / (a_p b_p))``, ``(..., n)``, for ``a, b: (..., n)`` and ``c: (...)``."""
    return np.sqrt(np.asarray(c, dtype=float)[..., None] / (np.asarray(a, dtype=float) * b))


def heisenberg_ortho_c(a, b, c) -> np.ndarray:
    """Orthonormal structure constants of the diagonal metrics, ``(..., d, d, d)``.

    ``a, b: (..., n)`` and ``c: (...)`` are parameter stacks as in ``heisenberg_params``
    (not validated here) and ``d = 2n + 1``; ``[E_p, F_p] = sqrt(c / (a_p b_p)) Z``
    in the orthonormal frame, and every other bracket of frame vectors vanishes.
    """
    coeff = _heisenberg_coeff(a, b, c)
    n = coeff.shape[-1]
    p = np.arange(1, n + 1)
    oc = np.zeros(coeff.shape[:-1] + (2 * n + 1,) * 3)
    oc[..., 2 * p - 1, 2 * p, 0] = coeff
    oc[..., 2 * p, 2 * p - 1, 0] = -coeff
    return oc


def heisenberg_spectrum(a, b, c) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form GK eigenvalues of the diagonal metrics: ``lambda (..., n)`` and ``mu (...)``.

    ``lambda_p = sqrt(c/(a_p b_p))/4`` is the eigenvalue on the ``E_p, F_p``
    directions and ``mu = -sum(lambda)`` the eigenvalue on the centre, summed left
    to right as Python's ``sum`` does (numpy's pairwise ``sum`` rounds differently
    from 8 terms on).
    """
    lam = 0.25 * _heisenberg_coeff(a, b, c)
    return lam, -np.add.accumulate(lam, axis=-1)[..., -1]


def _frame(frame: np.ndarray) -> np.ndarray:
    """One ``(3, 3)`` frame or a ``(..., 3, 3)`` stack; refuses any other shape."""
    f = np.asarray(frame, dtype=float)
    if f.shape[-2:] != (3, 3):
        raise InvalidParameterError("closed forms are defined for 3x3 frames only")
    return f


def _structure_3d(ortho_c: np.ndarray, what: str) -> np.ndarray:
    """``ortho_c`` as a float ``(..., 3, 3, 3)`` array; ``what`` names the caller's result."""
    c = np.asarray(ortho_c, dtype=float)
    if c.shape[-3:] != (3, 3, 3):
        raise UnsupportedDimensionError(f"{what} needs dimension 3, got shape {c.shape}")
    return c


def _sq(x):
    """``x ** 2`` per entry by libm ``pow``, as for a Python float, so a stack gives the bits
    of its frames evaluated one at a time (numpy squares an array by one product)."""
    return np.float_power(x, 2)


def _mat3(rows, scale=1.0) -> np.ndarray:
    """``scale`` times the matrix of nine entries given as three rows of scalars
    or arrays that broadcast together: ``(3, 3)``, or ``(..., 3, 3)`` for a stack."""
    entries = [e for row in rows for e in row]
    out = np.empty(np.broadcast(scale, *entries).shape + (9,))
    for k, e in enumerate(entries):
        out[..., k] = e
    out *= np.asarray(scale)[..., None]
    return out.reshape(out.shape[:-1] + (3, 3))


def reference_A(family: BianchiFamily, frame: np.ndarray) -> np.ndarray:
    """Closed-form matrix of the endomorphism ``A`` in the orthonormal frame."""
    f = _frame(frame)
    al, be, ga = f[..., 0, 0], f[..., 0, 1], f[..., 0, 2]
    ep, ze, io = f[..., 1, 1], f[..., 1, 2], f[..., 2, 2]
    det = al * ep * io
    x = family.x
    if family.tag == "L3(-1)":
        return _mat3(
            [
                [ga * ep - be * ze, 0.0, 0.0],
                [2 * al * ze, be * ze - ga * ep, 0.0],
                [-2 * al * ep, 0.0, be * ze - ga * ep],
            ],
            1.0 / (4 * al),
        )
    if family.tag == "L3(1)":
        return _mat3([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], det / (4 * al * al))
    if family.tag == "L3(2,x)":
        q = (x - 1) * be * io / (4 * al)
        return _mat3([[q, -io * x / 2, 0.0], [io / 2, -q, 0.0], [0.0, 0.0, -q]])
    if family.tag == "L3(3)":
        return _mat3(
            [
                [-io * ep, -2 * al * io, 0.0],
                [2 * al * io, io * ep, 0.0],
                [0.0, 0.0, io * ep],
            ],
            1.0 / (4 * al),
        )
    if family.tag == "L3(4,x)":
        io2 = io * io
        return _mat3(
            [
                [io2 * (_sq(al) - _sq(be) - _sq(ep)), 2 * al * io2 * (be - ep * x), 0.0],
                [2 * al * io2 * (be + ep * x), io2 * (-_sq(al) + _sq(be) + _sq(ep)), 0.0],
                [0.0, 0.0, io2 * (_sq(al) + _sq(be) + _sq(ep))],
            ],
            1.0 / (4 * det),
        )
    if family.tag == "L3(5)":
        a11 = io * (_sq(al) * io - be * (be * io + ep * ze) + ga * _sq(ep))
        a12 = al * io * (2 * be * io + ep * ze)
        a13 = -al * io * _sq(ep)
        a22 = io * (-_sq(al) * io + _sq(be) * io + be * ep * ze - ga * _sq(ep))
        a33 = io * (io * (_sq(al) + _sq(be)) + be * ep * ze - ga * _sq(ep))
        return _mat3([[a11, a12, a13], [a12, a22, 0.0], [a13, 0.0, a33]], 1.0 / (2 * det))
    # L3(6)
    cross = ga * ep - be * ze
    a11 = _sq(al) * (_sq(io) + _sq(ep) + _sq(ze)) - _sq(io) * (_sq(be) + _sq(ep)) - _sq(cross)
    a12 = 2 * al * (be * (_sq(io) + _sq(ze)) - ga * ep * ze)
    a13 = 2 * al * ep * cross
    a22 = -_sq(al) * (_sq(io) - _sq(ep) + _sq(ze)) + _sq(io) * (_sq(be) + _sq(ep)) + _sq(cross)
    a23 = 2 * _sq(al) * ep * ze
    a33 = _sq(al) * (_sq(io) - _sq(ep) + _sq(ze)) + _sq(io) * (_sq(be) + _sq(ep)) + _sq(cross)
    return _mat3([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]], 1.0 / (4 * det))


def reference_asymmetry(family: BianchiFamily, frame: np.ndarray) -> np.ndarray:
    """Closed form of ``A - A^T``; depends only on iota (and epsilon, zeta
    for ``L(3,-1)``) and the family parameter, not on the rest of the frame."""
    f = _frame(frame)
    if family.tag == "L3(-1)":
        ep, ze = f[..., 1, 1], f[..., 1, 2]
        return _mat3([[0.0, -ze, ep], [ze, 0.0, 0.0], [-ep, 0.0, 0.0]], 0.5)
    if family.tag not in ("L3(2,x)", "L3(3)", "L3(4,x)"):
        return np.zeros(f.shape[:-2] + (3, 3))
    io, x = f[..., 2, 2], family.x
    scale = 1.0 if family.tag == "L3(3)" else (x + 1) / 2 if family.tag == "L3(2,x)" else x
    return _mat3([[0.0, -io, 0.0], [io, 0.0, 0.0], [0.0, 0.0, 0.0]], scale)


def is_symmetric_family(family: BianchiFamily) -> bool:
    """Whether the endomorphism ``A`` is symmetric for every metric."""
    if family.tag in ("L3(1)", "L3(5)", "L3(6)"):
        return True
    if family.tag == "L3(2,x)":
        return family.x == -1
    if family.tag == "L3(4,x)":
        return family.x == 0
    return False


def reference_eigenvalues(family: BianchiFamily, frame: np.ndarray) -> np.ndarray | None:
    """Closed-form eigenvalues of ``A`` where a display exists, ``(..., 3)``.

    Available for ``L3(1)``, ``L3(2,-1)`` and ``L3(4,0)``; returns ``None``
    (numeric-only marker) for every other family, before touching the frame entries.
    """
    f, tag, x = _frame(frame), family.tag, family.x
    if not (tag == "L3(1)" or (tag == "L3(2,x)" and x == -1) or (tag == "L3(4,x)" and x == 0)):
        return None
    al, be, ep, io = f[..., 0, 0], f[..., 0, 1], f[..., 1, 1], f[..., 2, 2]
    det = al * ep * io
    if tag == "L3(1)":
        v = det / (4 * al * al)
        return np.stack([-v, v, v], axis=-1)
    if tag == "L3(2,x)":
        root = np.sqrt(_sq(al) * _sq(io) + _sq(be) * _sq(io)) / (2 * al)
        return np.stack([be * io / (2 * al), root, -root], axis=-1)
    lam = _sq(io) * (_sq(al) + _sq(be) + _sq(ep)) / (4 * det)  # L3(4,0)
    root = np.sqrt(np.maximum(_sq(lam) - 0.25 * _sq(io), 0.0))
    return np.stack([lam, root, -root], axis=-1)


def reference_ricci_3d(ortho_c: np.ndarray) -> np.ndarray:
    """Ricci matrix of a 3-dimensional metric Lie algebra with symmetric ``A``.

    Valid whenever the symmetry conditions on the orthonormal structure
    constants hold (c13^1 = -c23^2, c12^1 = c23^3, c12^2 = -c13^3); outside
    that locus the true Ricci involves further terms.
    """
    c = _structure_3d(ortho_c, "Ricci closed form")
    c123, c132, c133 = c[..., 0, 1, 2], c[..., 0, 2, 1], c[..., 0, 2, 2]
    c231, c232, c233 = c[..., 1, 2, 0], c[..., 1, 2, 1], c[..., 1, 2, 2]
    r11 = 0.5 * (_sq(c231) - _sq(c123 + c132) - 4 * _sq(c133))
    r22 = 0.5 * (_sq(c132) - _sq(c123 - c231) - 4 * _sq(c233))
    r33 = 0.5 * (_sq(c123) - _sq(c132 + c231) - 4 * _sq(c232))
    r12 = -(c123 + c132 - c231) * c232 - 2 * c133 * c233
    r13 = (c123 + c132 + c231) * c233 - 2 * c133 * c232
    r23 = c133 * (-c123 + c132 + c231) + 2 * c232 * c233
    return _mat3([[r11, r12, r13], [r12, r22, r23], [r13, r23, r33]])
