"""The six closed-form oracles on frame stacks, against one-frame transcriptions.

The ``scalar_*`` functions below are the closed forms as written for one
frame at a time: named Python-float (or numpy-scalar) entries and one
``np.array`` literal per call.
Each stacked oracle must give, for every sample of a stack, the bytes its
scalar transcription gives for that sample alone.
"""

import numpy as np
import pytest

from spinlab.algebra import frame_structure, random_frames
from spinlab.catalog import (
    BianchiFamily,
    make_bianchi,
    reference_A,
    reference_asymmetry,
    reference_eigenvalues,
    reference_ricci_3d,
)
from spinlab.errors import InvalidParameterError
from spinlab.gks import dirac_trace_3d, explicit_A_3d
from spinlab.selftest import family_grid

SAMPLES = 50


def _entries(p):
    """``(alpha, beta, gamma, epsilon, zeta, iota, det)`` of one 3x3 frame, as Python floats."""
    named = (p[0, 0], p[0, 1], p[0, 2], p[1, 1], p[1, 2], p[2, 2])
    return (*(float(v) for v in named), float(np.prod(np.diag(p))))


def scalar_reference_A(family, p):
    al, be, ga, ep, ze, io, det = _entries(p)
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
        return np.array([[q, -io * x / 2, 0.0], [io / 2, -q, 0.0], [0.0, 0.0, -q]])
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
        return (1.0 / (2 * det)) * np.array([[a11, a12, a13], [a12, a22, 0.0], [a13, 0.0, a33]])
    cross = ga * ep - be * ze
    a11 = al**2 * (io**2 + ep**2 + ze**2) - io**2 * (be**2 + ep**2) - cross**2
    a12 = 2 * al * (be * (io**2 + ze**2) - ga * ep * ze)
    a13 = 2 * al * ep * cross
    a22 = -(al**2) * (io**2 - ep**2 + ze**2) + io**2 * (be**2 + ep**2) + cross**2
    a23 = 2 * al**2 * ep * ze
    a33 = al**2 * (io**2 - ep**2 + ze**2) + io**2 * (be**2 + ep**2) + cross**2
    return (1.0 / (4 * det)) * np.array([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])


def scalar_reference_asymmetry(family, p):
    _, _, _, ep, ze, io, _ = _entries(p)
    rot = np.array([[0.0, -io, 0.0], [io, 0.0, 0.0], [0.0, 0.0, 0.0]])
    if family.tag == "L3(-1)":
        return 0.5 * np.array([[0.0, -ze, ep], [ze, 0.0, 0.0], [-ep, 0.0, 0.0]])
    if family.tag == "L3(2,x)":
        return ((family.x + 1) / 2) * rot
    if family.tag == "L3(3)":
        return rot
    if family.tag == "L3(4,x)":
        return family.x * rot
    return np.zeros((3, 3))


def scalar_reference_eigenvalues(family, p):
    al, be, _, ep, _, io, det = _entries(p)
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


def scalar_reference_ricci_3d(ortho_c):
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


def scalar_explicit_A_3d(c):
    c121, c122, c123 = c[0, 1, 0], c[0, 1, 1], c[0, 1, 2]
    c131, c132, c133 = c[0, 2, 0], c[0, 2, 1], c[0, 2, 2]
    c231, c232, c233 = c[1, 2, 0], c[1, 2, 1], c[1, 2, 2]
    return np.array(
        [
            [0.25 * (c123 - c132 - c231), -0.5 * c232, -0.5 * c233],
            [0.5 * c131, 0.25 * (c123 + c132 + c231), 0.5 * c133],
            [-0.5 * c121, -0.5 * c122, 0.25 * (-c123 - c132 + c231)],
        ]
    )


def scalar_dirac_trace_3d(c):
    return 0.25 * float(c[0, 1, 2] - c[0, 2, 1] + c[1, 2, 0])


def grid_stacks():
    """Per ``FAMILY_GRID`` family: the family, 50 seeded frames and their structure constants."""
    for idx, fam in enumerate(family_grid()):
        frames = random_frames(3, np.random.default_rng([17, idx]), SAMPLES)
        yield fam, frames, frame_structure(make_bianchi(fam), frames)[1]


def oracles(fam, frames, ortho_c):
    """Stacked and scalar results of the six oracles: ``(name, stack, per-sample function)``."""
    eig = reference_eigenvalues(fam, frames)
    return [
        ("reference_A", reference_A(fam, frames), lambda k: scalar_reference_A(fam, frames[k])),
        ("reference_asymmetry", reference_asymmetry(fam, frames),
         lambda k: scalar_reference_asymmetry(fam, frames[k])),
        ("reference_eigenvalues", eig, lambda k: scalar_reference_eigenvalues(fam, frames[k])),
        ("reference_ricci_3d", reference_ricci_3d(ortho_c),
         lambda k: scalar_reference_ricci_3d(ortho_c[k])),
        ("explicit_A_3d", explicit_A_3d(ortho_c), lambda k: scalar_explicit_A_3d(ortho_c[k])),
        ("dirac_trace_3d", dirac_trace_3d(ortho_c), lambda k: scalar_dirac_trace_3d(ortho_c[k])),
    ]


def test_stacked_oracles_match_scalar_transcriptions_bit_for_bit():
    with_eigenvalues = 0
    for fam, frames, ortho_c in grid_stacks():
        for name, stack, scalar in oracles(fam, frames, ortho_c):
            if stack is None:  # no closed-form eigenvalues for this family
                assert all(scalar(k) is None for k in range(SAMPLES)), (fam, name)
                continue
            with_eigenvalues += name == "reference_eigenvalues"
            assert stack.shape[:1] == (SAMPLES,) and stack.dtype == np.float64, (fam, name)
            for k in range(SAMPLES):
                want = np.asarray(scalar(k), dtype=float)
                assert stack[k].tobytes() == want.tobytes(), (fam.label, name, k)
    assert with_eigenvalues == 3  # L3(1), L3(2,-1) and L3(4,0)


def test_one_frame_gives_one_result():
    for fam, frames, ortho_c in grid_stacks():
        stacked = oracles(fam, frames, ortho_c)
        single = oracles(fam, frames[0], ortho_c[0])
        for (name, stack, _), (_, one, _) in zip(stacked, single):
            if stack is None:
                assert one is None, (fam, name)
                continue
            assert np.shape(one) == stack.shape[1:], (fam, name)
            assert np.asarray(one).tobytes() == stack[0].tobytes(), (fam, name)


def test_parameter_column_gives_each_family_its_own_bytes():
    # same-tag families stacked by x, as closed_form_deviations hands them over
    for tag in ("L3(2,x)", "L3(4,x)"):
        fams, frames = zip(*[(fam, f) for fam, f, _ in grid_stacks() if fam.tag == tag])
        column = BianchiFamily(tag, np.array([fam.x for fam in fams])[:, None])
        for oracle in (reference_A, reference_asymmetry):
            stack = oracle(column, np.stack(frames))
            assert stack.shape == (len(fams), SAMPLES, 3, 3), (tag, oracle)
            for g, fam in enumerate(fams):
                assert stack[g].tobytes() == oracle(fam, frames[g]).tobytes(), (fam, oracle)
    # every entry of a column is checked
    for tag, bad in (("L3(2,x)", 7.0), ("L3(2,x)", 0.0), ("L3(4,x)", -1.0), ("L3(4,x)", np.nan)):
        with pytest.raises(InvalidParameterError):
            BianchiFamily(tag, np.array([[1.0], [bad]]))


def test_closed_forms_refuse_frames_that_are_not_3x3():
    for fam in family_grid():
        for oracle in (reference_A, reference_asymmetry, reference_eigenvalues):
            for bad in (np.eye(2), np.eye(4), np.stack([np.eye(2)] * 5)):
                with pytest.raises(InvalidParameterError):
                    oracle(fam, bad)
