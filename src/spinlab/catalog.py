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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .algebra import FrameChange, LieAlgebra, MetricLieAlgebra
from .clifford import check_slots
from .errors import InvalidParameterError

FAMILY_TAGS = ("L3(-1)", "L3(1)", "L3(2,x)", "L3(3)", "L3(4,x)", "L3(5)", "L3(6)")
_PARAMETRIC = {"L3(2,x)", "L3(4,x)"}

_NAME_RE = re.compile(r"^L3\(\s*(-?\d+)\s*(?:,\s*([^)]+)\s*)?\)$")


@dataclass(frozen=True)
class BianchiFamily:
    """One of the seven 3-dimensional families, with parameter where needed.

    ``x`` must be finite; ``L3(2,x)`` requires ``0 < |x| <= 1`` and
    ``L3(4,x)`` requires ``x >= 0``; the other five take no parameter.
    """

    tag: str
    x: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in FAMILY_TAGS:
            raise InvalidParameterError(f"unknown family tag {self.tag!r}")
        if self.tag in _PARAMETRIC:
            if self.x is None:
                raise InvalidParameterError(f"{self.tag} requires a parameter x")
            if not np.isfinite(self.x):
                raise InvalidParameterError(f"{self.tag} requires a finite x, got x={self.x}")
            if self.tag == "L3(2,x)" and not 0 < abs(self.x) <= 1:
                raise InvalidParameterError(
                    f"L3(2,x) requires 0 < |x| <= 1, got x={self.x}"
                )
            if self.tag == "L3(4,x)" and self.x < 0:
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


@dataclass(frozen=True)
class HeisenbergParams:
    """Diagonal metric parameters on the Heisenberg algebra.

    ``a[p-1]`` and ``b[p-1]`` are the squared norms of ``E_p`` and ``F_p``
    in the defining basis, ``c`` the squared norm of the centre vector.
    """

    n: int
    a: tuple[float, ...]
    b: tuple[float, ...]
    c: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {self.n}")
        if len(self.a) != self.n or len(self.b) != self.n:
            raise InvalidParameterError("a and b must each have n entries")
        if not all(0.0 < v < float("inf") for v in (self.c, *self.a, *self.b)):
            raise InvalidParameterError("Heisenberg metric parameters must be positive and finite")
        with np.errstate(all="ignore"):
            ratios = np.float64(self.c) / (np.asarray(self.a) * np.asarray(self.b))
        if not np.all((ratios > 0.0) & (ratios < np.inf)):
            raise InvalidParameterError(
                "Heisenberg metric parameters out of floating-point range: "
                "every c / (a_p b_p) must be positive and finite"
            )

    @classmethod
    def defaults(cls, n: int) -> "HeisenbergParams":
        """The eigenvalue-separating choice ``a_p = p^2``, ``b_p = c = 1``."""
        return cls(n, tuple(float(p * p) for p in range(1, n + 1)), (1.0,) * n, 1.0)


def heisenberg_metric(params: HeisenbergParams) -> MetricLieAlgebra:
    """Metric Heisenberg algebra with orthonormal frame ``(Z, E_p, F_p)``.

    The Gram matrix is ``diag(c, a_1, b_1, ..., a_n, b_n)``, so the frame
    scales each basis vector by the reciprocal square root and
    ``[E_p, F_p] = sqrt(c / (a_p b_p)) Z`` in the orthonormal frame.
    """
    alg = make_heisenberg(params.n)
    diag = [params.c]
    for ap, bp in zip(params.a, params.b):
        diag.extend([ap, bp])
    gram = np.diag(np.asarray(diag, dtype=float))
    frame = np.diag(1.0 / np.sqrt(np.asarray(diag, dtype=float)))
    oc = np.zeros((alg.dim, alg.dim, alg.dim))
    for p in range(1, params.n + 1):
        coeff = float(np.sqrt(params.c / (params.a[p - 1] * params.b[p - 1])))
        oc[2 * p - 1, 2 * p, 0] = coeff
        oc[2 * p, 2 * p - 1, 0] = -coeff
    return MetricLieAlgebra(alg, gram, frame, oc)


def heisenberg_gk_eigenvalues(params: HeisenbergParams) -> tuple[list[float], float]:
    """Closed-form GK eigenvalues ``(lambda_1..lambda_n, mu)``.

    ``lambda_p = sqrt(c/(a_p b_p))/4`` is the eigenvalue on the ``E_p, F_p``
    directions and ``mu = -sum(lambda)`` the eigenvalue on the centre.
    """
    lam = [
        float(0.25 * np.sqrt(params.c / (ap * bp)))
        for ap, bp in zip(params.a, params.b)
    ]
    return lam, -sum(lam)


def _require_3d(p: FrameChange) -> None:
    if p.dim != 3:
        raise InvalidParameterError("closed forms are defined for 3x3 frames only")


def reference_A(family: BianchiFamily, p: FrameChange) -> np.ndarray:
    """Closed-form matrix of the endomorphism ``A`` in the orthonormal frame."""
    _require_3d(p)
    al, be, ga = p.alpha, p.beta, p.gamma
    ep, ze, io = p.epsilon, p.zeta, p.iota
    det = p.det_p
    x = family.x
    if family.tag == "L3(-1)":
        return (1.0 / (4 * al)) * np.array(
            [
                [ga * ep - be * ze, 0.0, 0.0],
                [2 * al * ze, be * ze - ga * ep, 0.0],
                [-2 * al * ep, 0.0, be * ze - ga * ep],
            ]
        )
    if family.tag == "L3(1)":
        return (det / (4 * al * al)) * np.diag([-1.0, 1.0, 1.0])
    if family.tag == "L3(2,x)":
        q = (x - 1) * be * io / (4 * al)
        return np.array(
            [[q, -io * x / 2, 0.0], [io / 2, -q, 0.0], [0.0, 0.0, -q]]
        )
    if family.tag == "L3(3)":
        return (1.0 / (4 * al)) * np.array(
            [
                [-io * ep, -2 * al * io, 0.0],
                [2 * al * io, io * ep, 0.0],
                [0.0, 0.0, io * ep],
            ]
        )
    if family.tag == "L3(4,x)":
        io2 = io * io
        return (1.0 / (4 * det)) * np.array(
            [
                [io2 * (al**2 - be**2 - ep**2), 2 * al * io2 * (be - ep * x), 0.0],
                [2 * al * io2 * (be + ep * x), io2 * (-(al**2) + be**2 + ep**2), 0.0],
                [0.0, 0.0, io2 * (al**2 + be**2 + ep**2)],
            ]
        )
    if family.tag == "L3(5)":
        a11 = io * (al**2 * io - be * (be * io + ep * ze) + ga * ep**2)
        a12 = al * io * (2 * be * io + ep * ze)
        a13 = -al * io * ep**2
        a22 = io * (-(al**2) * io + be**2 * io + be * ep * ze - ga * ep**2)
        a33 = io * (io * (al**2 + be**2) + be * ep * ze - ga * ep**2)
        return (1.0 / (2 * det)) * np.array(
            [[a11, a12, a13], [a12, a22, 0.0], [a13, 0.0, a33]]
        )
    # L3(6)
    cross = ga * ep - be * ze
    a11 = al**2 * (io**2 + ep**2 + ze**2) - io**2 * (be**2 + ep**2) - cross**2
    a12 = 2 * al * (be * (io**2 + ze**2) - ga * ep * ze)
    a13 = 2 * al * ep * cross
    a22 = -(al**2) * (io**2 - ep**2 + ze**2) + io**2 * (be**2 + ep**2) + cross**2
    a23 = 2 * al**2 * ep * ze
    a33 = al**2 * (io**2 - ep**2 + ze**2) + io**2 * (be**2 + ep**2) + cross**2
    return (1.0 / (4 * det)) * np.array(
        [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]
    )


def reference_asymmetry(family: BianchiFamily, p: FrameChange) -> np.ndarray:
    """Closed form of ``A - A^T``; depends only on iota (and epsilon, zeta
    for ``L(3,-1)``) and the family parameter, not on the rest of the frame."""
    _require_3d(p)
    io = p.iota
    rot = np.array([[0.0, -io, 0.0], [io, 0.0, 0.0], [0.0, 0.0, 0.0]])
    if family.tag == "L3(-1)":
        ep, ze = p.epsilon, p.zeta
        return 0.5 * np.array(
            [[0.0, -ze, ep], [ze, 0.0, 0.0], [-ep, 0.0, 0.0]]
        )
    if family.tag == "L3(2,x)":
        return ((family.x + 1) / 2) * rot
    if family.tag == "L3(3)":
        return rot
    if family.tag == "L3(4,x)":
        return family.x * rot
    return np.zeros((3, 3))


def is_symmetric_family(family: BianchiFamily) -> bool:
    """Whether the endomorphism ``A`` is symmetric for every metric."""
    if family.tag in ("L3(1)", "L3(5)", "L3(6)"):
        return True
    if family.tag == "L3(2,x)":
        return family.x == -1
    if family.tag == "L3(4,x)":
        return family.x == 0
    return False


def reference_eigenvalues(family: BianchiFamily, p: FrameChange) -> list[float] | None:
    """Closed-form eigenvalues of ``A`` where a display exists.

    Available for ``L3(1)``, ``L3(2,-1)`` and ``L3(4,0)``; returns ``None``
    (numeric-only marker) for the other symmetric families.
    """
    _require_3d(p)
    al, be, ep, io = p.alpha, p.beta, p.epsilon, p.iota
    det = p.det_p
    if family.tag == "L3(1)":
        v = det / (4 * al * al)
        return [-v, v, v]
    if family.tag == "L3(2,x)" and family.x == -1:
        root = float(np.sqrt(al**2 * io**2 + be**2 * io**2) / (2 * al))
        return [be * io / (2 * al), root, -root]
    if family.tag == "L3(4,x)" and family.x == 0:
        lam = io**2 * (al**2 + be**2 + ep**2) / (4 * det)
        root = float(np.sqrt(max(lam**2 - 0.25 * io**2, 0.0)))
        return [lam, root, -root]
    return None


def reference_ricci_3d(ortho_c: np.ndarray) -> np.ndarray:
    """Ricci matrix of a 3-dimensional metric Lie algebra with symmetric ``A``.

    Valid whenever the symmetry conditions on the orthonormal structure
    constants hold (c13^1 = -c23^2, c12^1 = c23^3, c12^2 = -c13^3); outside
    that locus the true Ricci involves further terms.
    """
    c123 = ortho_c[0, 1, 2]
    c132 = ortho_c[0, 2, 1]
    c133 = ortho_c[0, 2, 2]
    c231 = ortho_c[1, 2, 0]
    c232 = ortho_c[1, 2, 1]
    c233 = ortho_c[1, 2, 2]
    r11 = 0.5 * (c231**2 - (c123 + c132) ** 2 - 4 * c133**2)
    r22 = 0.5 * (c132**2 - (c123 - c231) ** 2 - 4 * c233**2)
    r33 = 0.5 * (c123**2 - (c132 + c231) ** 2 - 4 * c232**2)
    r12 = -(c123 + c132 - c231) * c232 - 2 * c133 * c233
    r13 = (c123 + c132 + c231) * c233 - 2 * c133 * c232
    r23 = c133 * (-c123 + c132 + c231) + 2 * c232 * c233
    return np.array([[r11, r12, r13], [r12, r22, r23], [r13, r23, r33]])
