"""Coefficient algebra for the two-component b-family system.

The system evolves a velocity u and a density rho:

    m_t = u m_x + k1 u_x m + k2 rho rho_x,   m = u - u_xx
    rho_t = k3 (u rho)_x

Two named coefficient cases are supported:

    case (i):  k1 = b,     k2 = 2b,  k3 = 1
    case (ii): k1 = b + 1, k2 = 2,   k3 = b

plus free (k1, k2, k3) triples for exploring the blow-up classifiers
across all of their branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class CaseTag(Enum):
    CASE_I = "case_i"
    CASE_II = "case_ii"
    CUSTOM = "custom"


class Framework(Enum):
    """Which well-posedness frame a scenario classification refers to.

    HS is the high-regularity frame (H^s x H^{s-1}, s > 5/2) whose
    breakdown criteria involve rho_x as well as u_x; H2 is the
    H^2 x H^1 frame whose criteria involve u_x only.
    """

    HS = "hs"
    H2 = "h2"


class Branch(Enum):
    """Which one-sided gradient quantity can escape to infinity."""

    NEG_INF_UX = "neg_inf_ux"
    POS_INF_UX = "pos_inf_ux"
    TWO_SIDED_UX = "two_sided_ux"


@dataclass(frozen=True)
class ModelParams:
    """Coefficient triple (k1, k2, k3) with its provenance tag."""

    k1: float
    k2: float
    k3: float
    b: float | None = None
    case_tag: CaseTag = CaseTag.CUSTOM

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite coefficient {name}")


class ParamStack:
    """The ModelParams of a batch of members, with k1, k2 and k3 as
    (B, 1) columns that broadcast against the members' rows (B, N).

    eval_rhs and make_record read only k1, k2 and k3; step_rk4 also
    reads `members`, each member's own ModelParams.  A stack of one
    holds the coefficients as floats: they broadcast to the same
    values, without numpy's per-call cost for tiny arrays.
    """

    def __init__(self, members: Sequence[ModelParams]):
        self.members = tuple(members)
        self.k1, self.k2, self.k3 = (
            getattr(self.members[0], k) if len(self.members) == 1
            else np.array([[getattr(q, k)] for q in self.members])
            for k in ("k1", "k2", "k3"))


@dataclass(frozen=True)
class ScenarioBranch:
    """Classification result: branch plus a bookkeeping flag.

    boundary_overlap: both one-sided predicates of the H2 frame hold
    simultaneously (k1 exactly 1/2 with k2 = 0 <= k3 = 0 style corner);
    POS_INF_UX is returned but either reading would be admissible.
    """

    branch: Branch
    boundary_overlap: bool = False


def make_params(case_tag: CaseTag, b: float) -> ModelParams:
    """Populate (k1, k2, k3) for one of the two named cases."""
    if not math.isfinite(b):
        raise ValueError("non-finite b")
    if case_tag is CaseTag.CASE_I:
        return ModelParams(k1=b, k2=2.0 * b, k3=1.0, b=b, case_tag=case_tag)
    if case_tag is CaseTag.CASE_II:
        return ModelParams(k1=b + 1.0, k2=2.0, k3=b, b=b, case_tag=case_tag)
    raise ValueError("make_params handles the named cases; build custom "
                     "coefficients with custom_params(k1, k2, k3)")


def custom_params(k1: float, k2: float, k3: float) -> ModelParams:
    """Raw constructor for free coefficient triples."""
    return ModelParams(k1=k1, k2=k2, k3=k3, b=None, case_tag=CaseTag.CUSTOM)


def classify_scenario(p: ModelParams, framework: Framework) -> ScenarioBranch:
    """Decide which gradient quantity controls breakdown for (k1, k2, k3).

    HS frame:
        k1 <= -1/2 and k3 <= min(0, k2)  -> NEG_INF_UX
        k1 >= 1    and k3 >= max(0, k2)  -> POS_INF_UX
        otherwise                        -> TWO_SIDED_UX

    H2 frame:
        k1 <= 1/2 and k3 <= min(k2, 0)   -> NEG_INF_UX
        k1 >= 1/2 and k3 >= max(k2, 0)   -> POS_INF_UX
        otherwise                        -> TWO_SIDED_UX

    Both H2 predicates can hold at the k1 = 1/2 corner; the positive
    branch wins and the overlap is flagged.
    """
    k1, k2, k3 = p.k1, p.k2, p.k3
    if framework is Framework.HS:
        if k1 <= -0.5 and k3 <= min(0.0, k2):
            return ScenarioBranch(Branch.NEG_INF_UX)
        if k1 >= 1.0 and k3 >= max(0.0, k2):
            return ScenarioBranch(Branch.POS_INF_UX)
        return ScenarioBranch(Branch.TWO_SIDED_UX)
    if framework is Framework.H2:
        neg = k1 <= 0.5 and k3 <= min(k2, 0.0)
        pos = k1 >= 0.5 and k3 >= max(k2, 0.0)
        if pos:
            return ScenarioBranch(Branch.POS_INF_UX, boundary_overlap=neg)
        if neg:
            return ScenarioBranch(Branch.NEG_INF_UX)
        return ScenarioBranch(Branch.TWO_SIDED_UX)
    raise ValueError(f"unknown framework {framework!r}")
