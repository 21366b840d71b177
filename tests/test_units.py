"""Frozen constants and derived couplings."""

import copy
import math
import re

import pytest

from acsusy import (
    DEFAULT_CONSTANTS,
    NonconfiningSign,
    PhysicalConstants,
    Slab,
    beta_cylinder,
    beta_sphere,
    coupling_eta,
    degeneracy_family,
    lambda_threshold,
)


def test_frozen_default_values():
    assert DEFAULT_CONSTANTS.e_esu == 4.8032e-10
    assert DEFAULT_CONSTANTS.kappa_n == 1.9130
    assert DEFAULT_CONSTANTS.m_c2_erg == 1.5053e-3


def test_eta_from_frozen_constants():
    # hand-evaluated e*kappa/(M c^2) with the frozen numbers
    assert coupling_eta(DEFAULT_CONSTANTS) == pytest.approx(6.104113200e-07, rel=1e-9)


def test_eta_scales_linearly_in_each_constant():
    base = coupling_eta(DEFAULT_CONSTANTS)
    doubled = PhysicalConstants(
        e_esu=2 * DEFAULT_CONSTANTS.e_esu,
        kappa_n=DEFAULT_CONSTANTS.kappa_n,
        m_c2_erg=DEFAULT_CONSTANTS.m_c2_erg,
    )
    assert coupling_eta(doubled) == pytest.approx(2 * base, rel=1e-14)
    heavier = PhysicalConstants(
        e_esu=DEFAULT_CONSTANTS.e_esu,
        kappa_n=DEFAULT_CONSTANTS.kappa_n,
        m_c2_erg=3 * DEFAULT_CONSTANTS.m_c2_erg,
    )
    assert coupling_eta(heavier) == pytest.approx(base / 3, rel=1e-14)


def test_sphere_coupling_is_third_of_slab_bound():
    rho0 = 7.3e5
    assert beta_sphere(rho0) == pytest.approx(Slab(rho0, 1.0).k_bound_sq() / 3.0, rel=1e-14)


def test_cylinder_coupling_sign_and_magnitude():
    rho = 1.0e7
    beta = beta_cylinder(rho)
    assert beta < 0
    assert beta == pytest.approx(-coupling_eta(DEFAULT_CONSTANTS) * rho / 4.0, rel=1e-14)
    # negative density flips the sign (sign covariance)
    assert beta_cylinder(-rho) == pytest.approx(-beta, rel=1e-14)


def test_threshold_identity_lambda_eta_is_4pi():
    # 4 pi M c^2/|e kappa| times eta = 4 pi exactly, independent of constants
    for kappa in (1.9130, -1.9130, 0.5):
        c = PhysicalConstants(e_esu=4.8032e-10, kappa_n=kappa, m_c2_erg=1.5053e-3)
        assert lambda_threshold(c) * abs(coupling_eta(c)) == pytest.approx(
            4.0 * math.pi, rel=1e-13
        )


def test_threshold_value_with_frozen_constants():
    assert lambda_threshold(DEFAULT_CONSTANTS) == pytest.approx(2.0586726e7, rel=1e-7)


def test_slab_bound_rejects_nonconfining_density():
    # the text `acsusy slab` prints for a density of the wrong sign
    text = "slab with eta*rho0 <= 0 admits no normalizable family (4 pi eta rho0 = {})"
    with pytest.raises(NonconfiningSign, match=f"^{re.escape(text.format('0'))}$"):
        degeneracy_family(Slab(0.0, 1.0))
    with pytest.raises(NonconfiningSign, match=f"^{re.escape(text.format('-7.67065'))}$"):
        degeneracy_family(Slab(-1.0e6, 1.0))


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(e_esu=0.0, kappa_n=1.9130, m_c2_erg=1.5053e-3)
    with pytest.raises(ValueError):
        PhysicalConstants(e_esu=4.8032e-10, kappa_n=0.0, m_c2_erg=1.5053e-3)
    with pytest.raises(ValueError):
        PhysicalConstants(e_esu=4.8032e-10, kappa_n=1.9130, m_c2_erg=-1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(e_esu=4.8032e-10, kappa_n=float("nan"), m_c2_erg=1.5053e-3)


def test_constants_are_frozen_values():
    # the value semantics of the former frozen dataclass
    c = PhysicalConstants()
    assert c == DEFAULT_CONSTANTS
    assert hash(c) == hash(DEFAULT_CONSTANTS)
    assert PhysicalConstants(4.8032e-10, 1.9130, 1.5053e-3) == c
    assert PhysicalConstants(kappa_n=-1.9130) != c
    assert repr(c) == "PhysicalConstants(e_esu=4.8032e-10, kappa_n=1.913, m_c2_erg=0.0015053)"
    assert eval(repr(c), {"PhysicalConstants": PhysicalConstants}) == c
    assert copy.deepcopy(c) == c
    with pytest.raises(AttributeError):
        c.kappa_n = -1.9130
    with pytest.raises(AttributeError):
        del c.kappa_n
    assert c.kappa_n == 1.9130


@pytest.mark.parametrize(
    "override,message",
    [
        ({"e_esu": 0.0}, "e_esu must be positive and finite"),
        ({"e_esu": math.inf}, "e_esu must be positive and finite"),
        ({"m_c2_erg": -1.0}, "m_c2_erg must be positive and finite"),
        ({"m_c2_erg": math.nan}, "m_c2_erg must be positive and finite"),
        ({"kappa_n": 0.0}, "kappa_n must be finite and nonzero"),
        ({"kappa_n": -math.inf}, "kappa_n must be finite and nonzero"),
    ],
)
def test_invalid_constants_keep_their_messages(override, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PhysicalConstants(**override)
