"""The behaviour contract's fixed surface: the names the package binds and
the keys of an extremal solution's report."""

import dataclasses
import math
import types

import numpy as np

import debranges
from debranges.extremal import (
    ExtremalProblem,
    KernelNodeBasis,
    PolynomialBasis,
    solve,
)
from debranges.hb_core import HBSpec

PUBLIC_NAMES = [
    "BracketUnavailableError",
    "C2_exact",
    "Combination",
    "ExtremalProblem",
    "ExtremalSolution",
    "HBSpec",
    "HormanderReport",
    "K_p_closed",
    "K_p_quadrature",
    "Kernel",
    "KernelNodeBasis",
    "MaxAtInfinityError",
    "MembershipError",
    "PhaseProfile",
    "PolynomialBasis",
    "QuadratureScheme",
    "RealPolynomial",
    "RotationRealPart",
    "SpecError",
    "WrongSignError",
    "asymptotic_check",
    "bracket_A_zeros",
    "bracket_B_zeros",
    "embedding_bound",
    "eval_AB",
    "eval_E",
    "extract_zeros",
    "hb_bar_check",
    "integrate",
    "interval_energy",
    "kernel_eval",
    "level_crossings",
    "local_expansion_check",
    "locate_extremum",
    "log_gamma",
    "mean_type_diagnostic",
    "monotone_solve",
    "nonasymptotic_bound_pth_power",
    "orthogonality_residual",
    "phase",
    "phase_derivative",
    "phase_derivative_sup",
    "plateau_interval",
    "problem_from_dict",
    "problem_to_dict",
    "separation_report",
    "solve",
    "sup_on_window",
    "symmetrize_real",
    "theta",
    "verify_sign_free",
    "verify_theorem1",
]

SOLUTION_KEYS = {
    "p",
    "xi",
    "basis_kind",
    "coefficients",
    "C_value",
    "zeros",
    "kkt_residual",
    "orthogonality_residuals",
    "min_zero_gap",
    "norm_residual",
    "truncated",
}


def test_public_names():
    # submodules become attributes once imported; they are not API names
    bound = sorted(
        name
        for name, value in vars(debranges).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert bound == PUBLIC_NAMES


def test_problem_fields():
    # quadrature sizes are solver constants, not problem options
    fields = [f.name for f in dataclasses.fields(ExtremalProblem)]
    assert fields == ["p", "spec", "xi", "basis", "kkt_tol", "window"]


def test_solution_report_keys():
    polynomial = ExtremalProblem(
        p=1.5, spec=HBSpec(zeros=(-1j,) * 4), xi=0.0, basis=PolynomialBasis(2)
    )
    kernel = ExtremalProblem(
        p=2.0,
        spec=HBSpec(exp_rate=math.pi),
        xi=0.3,
        basis=KernelNodeBasis(tuple(np.linspace(-2.0, 2.0, 5))),
        window=(-6.0, 6.0),
    )
    for prob, kind in ((polynomial, "polynomial"), (kernel, "kernel")):
        report = solve(prob).to_dict()
        assert set(report) == SOLUTION_KEYS
        assert report["basis_kind"] == kind
