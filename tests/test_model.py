import math

import pytest

from bfamily2c import (Branch, CaseTag, Framework, classify_scenario,
                       custom_params, make_params)


@pytest.mark.parametrize("b", [0.5, 1.5, 2.0, 3.0])
def test_case_i_coefficients(b):
    p = make_params(CaseTag.CASE_I, b)
    assert (p.k1, p.k2, p.k3) == (b, 2.0 * b, 1.0)
    assert p.b == b and p.case_tag is CaseTag.CASE_I


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_case_ii_coefficients(b):
    p = make_params(CaseTag.CASE_II, b)
    assert (p.k1, p.k2, p.k3) == (b + 1.0, 2.0, b)
    assert p.b == b and p.case_tag is CaseTag.CASE_II


def test_custom_params_has_no_b():
    p = custom_params(0.3, -1.0, 2.0)
    assert p.b is None and p.case_tag is CaseTag.CUSTOM
    assert (p.k1, p.k2, p.k3) == (0.3, -1.0, 2.0)


def test_make_params_rejects_custom_tag():
    with pytest.raises(ValueError):
        make_params(CaseTag.CUSTOM, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_coefficients_rejected(bad):
    with pytest.raises(ValueError):
        custom_params(bad, 0.0, 0.0)
    with pytest.raises(ValueError):
        make_params(CaseTag.CASE_I, bad)


# (k1, k2, k3) -> expected branch per framework
HS_CASES = [
    ((-1.0, 0.0, -1.0), Branch.NEG_INF_UX),
    ((-0.5, 2.0, 0.0), Branch.NEG_INF_UX),
    ((1.0, 0.0, 0.0), Branch.POS_INF_UX),
    ((3.0, 2.0, 2.0), Branch.POS_INF_UX),   # case (ii), b = 2
    ((2.0, 4.0, 1.0), Branch.TWO_SIDED_UX),  # case (i), b = 2: k3 < k2
    ((0.0, 0.0, 0.0), Branch.TWO_SIDED_UX),
    ((1.0, 4.0, 1.0), Branch.TWO_SIDED_UX),
]

H2_CASES = [
    ((0.25, -1.0, -2.0), Branch.NEG_INF_UX),
    ((0.5, 0.0, -1.0), Branch.NEG_INF_UX),
    ((2.0, 2.0, 2.0), Branch.POS_INF_UX),
    ((3.0, 2.0, 2.0), Branch.POS_INF_UX),
    ((2.0, 4.0, 1.0), Branch.TWO_SIDED_UX),
    ((1.5, 2.0, 0.5), Branch.TWO_SIDED_UX),  # case (ii), b = 0.5
    ((0.4, 1.0, 1.0), Branch.TWO_SIDED_UX),
]


@pytest.mark.parametrize("ks,branch", HS_CASES)
def test_classify_hs(ks, branch):
    sb = classify_scenario(custom_params(*ks), Framework.HS)
    assert sb.branch is branch
    assert sb.boundary_overlap is False


@pytest.mark.parametrize("ks,branch", H2_CASES)
def test_classify_h2(ks, branch):
    sb = classify_scenario(custom_params(*ks), Framework.H2)
    assert sb.branch is branch


def test_h2_corner_overlap_flagged():
    # both one-sided predicates hold at k1 = 1/2, k2 = k3 = 0; the
    # positive reading wins but the overlap must be flagged
    sb = classify_scenario(custom_params(0.5, 0.0, 0.0), Framework.H2)
    assert sb.branch is Branch.POS_INF_UX
    assert sb.boundary_overlap is True
    # breaking the corner in either direction clears the flag
    assert not classify_scenario(custom_params(0.6, 0.0, 0.0),
                                 Framework.H2).boundary_overlap
    assert not classify_scenario(custom_params(0.5, 0.0, 1.0),
                                 Framework.H2).boundary_overlap
