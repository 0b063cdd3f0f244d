import numpy as np
import pytest
from hypothesis import given, strategies as st

from unisplit import schemes
from unisplit.schemes import (
    Factor,
    SchemeError,
    SplittingScheme,
    catalog,
    catalog_names,
    delta_norms,
    drift_comparator,
    get_scheme,
)

ALL_NAMES = catalog_names()

# The expanded catalog and the comparator, bit for bit: name -> (kind, order,
# rkn, stages, factors), each factor as "op real.hex() imag.hex()" of its
# coefficient, in application order.
CATALOG_PIN = {
    "S31": ("BAB", 3, False, 2, (
        "B 0x1.0000000000000p-2 0x1.279a74590331cp-3",
        "A 0x1.0000000000000p-1 0x1.279a74590331cp-2",
        "B 0x1.0000000000000p-1 0x0.0p+0",
        "A 0x1.0000000000000p-1 -0x1.279a74590331cp-2",
        "B 0x1.0000000000000p-2 -0x1.279a74590331cp-3",
    )),
    "S32": ("BAB", 3, False, 3, (
        "B 0x1.a69a69a69a69ap-4 -0x1.61206772f6778p-4",
        "A 0x1.3333333333333p-2 0x0.0p+0",
        "B 0x1.9659659659659p-2 0x1.b968814fb4155p-3",
        "A 0x1.999999999999ap-2 0x0.0p+0",
        "B 0x1.9659659659659p-2 -0x1.b968814fb4155p-3",
        "A 0x1.3333333333333p-2 0x0.0p+0",
        "B 0x1.a69a69a69a69ap-4 0x1.61206772f6778p-4",
    )),
    "S4": ("BAB", 4, False, 3, (
        "B 0x1.0000000000000p-3 0x1.4a7e9cb8a3491p-3",
        "A 0x1.0000000000000p-2 0x1.4a7e9cb8a3491p-2",
        "B 0x1.8000000000000p-2 0x1.4a7e9cb8a3491p-3",
        "A 0x1.0000000000000p-1 0x0.0p+0",
        "B 0x1.8000000000000p-2 -0x1.4a7e9cb8a3491p-3",
        "A 0x1.0000000000000p-2 -0x1.4a7e9cb8a3491p-2",
        "B 0x1.0000000000000p-3 -0x1.4a7e9cb8a3491p-3",
    )),
    "strang": ("ABA", 2, False, 1, (
        "A 0x1.0000000000000p-1 0x0.0p+0",
        "B 0x1.0000000000000p+0 0x0.0p+0",
        "A 0x1.0000000000000p-1 0x0.0p+0",
    )),
    "triple_jump4": ("ABA", 4, False, 3, (
        "A 0x1.59e8b6eb96339p-1 0x0.0p+0",
        "B 0x1.59e8b6eb96339p+0 0x0.0p+0",
        "A -0x1.67a2dbae58ce4p-3 0x0.0p+0",
        "B -0x1.b3d16dd72c672p+0 0x0.0p+0",
        "A -0x1.67a2dbae58ce4p-3 0x0.0p+0",
        "B 0x1.59e8b6eb96339p+0 0x0.0p+0",
        "A 0x1.59e8b6eb96339p-1 0x0.0p+0",
    )),
    "NB5s4": ("BAB", 4, True, 5, (
        "B 0x1.0705d3a64b70ep-4 0x1.924b04c81d83ap-6",
        "A 0x1.6369c4cf295a8p-3 0x0.0p+0",
        "B 0x1.9d01dc4e46de0p-3 -0x1.92574fa10223cp-4",
        "A 0x1.8ce239772590ep-3 0x0.0p+0",
        "B 0x1.df7b39de93698p-3 0x1.31811491ac84ep-3",
        "A 0x1.0fb401b9b114ap-2 0x0.0p+0",
        "B 0x1.df7b39de93698p-3 -0x1.31811491ac84ep-3",
        "A 0x1.8ce239772590ep-3 0x0.0p+0",
        "B 0x1.9d01dc4e46de0p-3 0x1.92574fa10223cp-4",
        "A 0x1.6369c4cf295a8p-3 0x0.0p+0",
        "B 0x1.0705d3a64b70ep-4 -0x1.924b04c81d83ap-6",
    )),
    "NB6s4": ("BAB", 4, True, 6, (
        "B 0x1.1eb851eb851ecp-4 0x1.3e9342428c4fbp-6",
        "A 0x1.999999999999ap-3 0x0.0p+0",
        "B 0x1.47ae147ae147bp-3 -0x1.a57a5569649d6p-3",
        "A 0x1.c15fdd610c4c6p-5 0x0.0p+0",
        "B 0x1.4cd63385320e7p-3 0x1.b291c83151a2ap-3",
        "A 0x1.f60e6f0e23534p-3 0x0.0p+0",
        "B 0x1.b83f1e1454350p-3 0x0.0p+0",
        "A 0x1.f60e6f0e23534p-3 0x0.0p+0",
        "B 0x1.4cd63385320e7p-3 -0x1.b291c83151a2ap-3",
        "A 0x1.c15fdd610c4c6p-5 0x0.0p+0",
        "B 0x1.47ae147ae147bp-3 0x1.a57a5569649d6p-3",
        "A 0x1.999999999999ap-3 0x0.0p+0",
        "B 0x1.1eb851eb851ecp-4 -0x1.3e9342428c4fbp-6",
    )),
    "NB8s5": ("BAB", 5, True, 8, (
        "B 0x1.89374bc6a7efap-5 -0x1.27adf83214e2ap-8",
        "A 0x1.15a3856cfd497p-3 0x0.0p+0",
        "B 0x1.45a1cac083127p-3 0x1.46fca70379c48p-5",
        "A 0x1.f00c4e968ea84p-4 0x0.0p+0",
        "B 0x1.68c887e88d01fp-4 -0x1.8edbd1ef2fc8cp-3",
        "A 0x1.4f44a1796056ap-5 0x0.0p+0",
        "B 0x1.4d5fa928b0e27p-4 0x1.63256dc5ebc71p-3",
        "A 0x1.9e852ae9634cep-3 0x0.0p+0",
        "B 0x1.f9f8938a67fecp-3 0x0.0p+0",
        "A 0x1.9e852ae9634cep-3 0x0.0p+0",
        "B 0x1.4d5fa928b0e27p-4 -0x1.63256dc5ebc71p-3",
        "A 0x1.4f44a1796056ap-5 0x0.0p+0",
        "B 0x1.68c887e88d01fp-4 0x1.8edbd1ef2fc8cp-3",
        "A 0x1.f00c4e968ea84p-4 0x0.0p+0",
        "B 0x1.45a1cac083127p-3 -0x1.46fca70379c48p-5",
        "A 0x1.15a3856cfd497p-3 0x0.0p+0",
        "B 0x1.89374bc6a7efap-5 0x1.27adf83214e2ap-8",
    )),
    "NB9s5": ("BAB", 5, True, 9, (
        "B 0x1.eb851eb851eb8p-6 -0x1.ab7041c97ae94p-6",
        "A 0x1.0e5604189374cp-4 0x0.0p+0",
        "B 0x1.0a3d70a3d70a4p-4 0x1.65220faacd690p-4",
        "A 0x1.0e5604189374cp-4 0x0.0p+0",
        "B 0x1.6798078dcbde4p-4 -0x1.42598f35fe469p-4",
        "A 0x1.3b8407cb67a5ap-3 0x0.0p+0",
        "B 0x1.c097228d1f7e6p-3 0x1.724117c560859p-8",
        "A 0x1.a27e601f08107p-3 0x0.0p+0",
        "B 0x1.921afb0609a00p-4 0x1.3b69d6ef35d29p-2",
        "A 0x1.3a793fcfcd540p-6 0x0.0p+0",
        "B 0x1.921afb0609a00p-4 -0x1.3b69d6ef35d29p-2",
        "A 0x1.a27e601f08107p-3 0x0.0p+0",
        "B 0x1.c097228d1f7e6p-3 -0x1.724117c560859p-8",
        "A 0x1.3b8407cb67a5ap-3 0x0.0p+0",
        "B 0x1.6798078dcbde4p-4 0x1.42598f35fe469p-4",
        "A 0x1.0e5604189374cp-4 0x0.0p+0",
        "B 0x1.0a3d70a3d70a4p-4 -0x1.65220faacd690p-4",
        "A 0x1.0e5604189374cp-4 0x0.0p+0",
        "B 0x1.eb851eb851eb8p-6 0x1.ab7041c97ae94p-6",
    )),
    "NA11s6": ("ABA", 6, True, 11, (
        "A 0x1.011b360030ec2p-4 0x0.0p+0",
        "B 0x1.be1fee51ad060p-4 -0x1.4b10ac3b92f35p-3",
        "A 0x1.865cc9822c2f8p-7 0x0.0p+0",
        "B 0x1.d0cbac2dd540bp-5 0x1.86d8d23ac6925p-3",
        "A 0x1.a285c3769a9d2p-3 0x0.0p+0",
        "B 0x1.c89a93948000bp-28 -0x1.b4c12c8f56d86p-3",
        "A 0x1.3b1e2907a3db5p-6 0x0.0p+0",
        "B 0x1.ec80c480ac83ep-3 0x1.9e33328a59438p-4",
        "A 0x1.0e159c06175a2p-4 0x0.0p+0",
        "B 0x1.6160adde5cdadp-5 0x1.e9aa6fba5748fp-4",
        "A 0x1.161841cd2a018p-3 0x0.0p+0",
        "B 0x1.9f90b3bc8ca18p-4 0x0.0p+0",
        "A 0x1.161841cd2a018p-3 0x0.0p+0",
        "B 0x1.6160adde5cdadp-5 -0x1.e9aa6fba5748fp-4",
        "A 0x1.0e159c06175a2p-4 0x0.0p+0",
        "B 0x1.ec80c480ac83ep-3 -0x1.9e33328a59438p-4",
        "A 0x1.3b1e2907a3db5p-6 0x0.0p+0",
        "B 0x1.c89a93948000bp-28 0x1.b4c12c8f56d86p-3",
        "A 0x1.a285c3769a9d2p-3 0x0.0p+0",
        "B 0x1.d0cbac2dd540bp-5 -0x1.86d8d23ac6925p-3",
        "A 0x1.865cc9822c2f8p-7 0x0.0p+0",
        "B 0x1.be1fee51ad060p-4 0x1.4b10ac3b92f35p-3",
        "A 0x1.011b360030ec2p-4 0x0.0p+0",
    )),
    "NB11s6": ("BAB", 6, True, 11, (
        "B 0x1.cac083126e979p-6 -0x1.385fe40e3b93ap-7",
        "A 0x1.5cfaacd9e83e4p-4 0x0.0p+0",
        "B 0x1.5eb8919fcf4bfp-4 0x1.263bd448e2132p-4",
        "A 0x1.83f61dcd74555p-5 0x0.0p+0",
        "B 0x1.7e38be7238678p-4 -0x1.773ccce54c755p-4",
        "A 0x1.3e2e6fad3e4a9p-3 0x0.0p+0",
        "B 0x1.e3499c0210652p-4 0x1.1fd78e19d78bep-4",
        "A 0x1.9a18a91b98f2cp-4 0x0.0p+0",
        "B 0x1.4b4da45d5c876p-3 -0x1.627f1add83822p-5",
        "A 0x1.b00a1636f3679p-4 0x0.0p+0",
        "B 0x1.b3cd536499960p-7 -0x1.c33c067679592p-3",
        "A 0x1.a8aa59254a7c0p-7 0x0.0p+0",
        "B 0x1.b3cd536499960p-7 0x1.c33c067679592p-3",
        "A 0x1.b00a1636f3679p-4 0x0.0p+0",
        "B 0x1.4b4da45d5c876p-3 0x1.627f1add83822p-5",
        "A 0x1.9a18a91b98f2cp-4 0x0.0p+0",
        "B 0x1.e3499c0210652p-4 -0x1.1fd78e19d78bep-4",
        "A 0x1.3e2e6fad3e4a9p-3 0x0.0p+0",
        "B 0x1.7e38be7238678p-4 0x1.773ccce54c755p-4",
        "A 0x1.83f61dcd74555p-5 0x0.0p+0",
        "B 0x1.5eb8919fcf4bfp-4 -0x1.263bd448e2132p-4",
        "A 0x1.5cfaacd9e83e4p-4 0x0.0p+0",
        "B 0x1.cac083126e979p-6 0x1.385fe40e3b93ap-7",
    )),
    "B3s3": ("BAB", 3, False, 3, (
        "B 0x1.52f7016c32259p-3 0x1.2f8151a0639fdp-5",
        "A 0x1.e1e4f765fd8aep-2 0x0.0p+0",
        "B 0x1.56847f49e6ed4p-2 -0x1.429a6f9446e2ap-1",
        "A 0x1.e1b089a027520p-5 0x0.0p+0",
        "B 0x1.56847f49e6ed4p-2 0x1.429a6f9446e2ap-1",
        "A 0x1.e1e4f765fd8aep-2 0x0.0p+0",
        "B 0x1.52f7016c32259p-3 -0x1.2f8151a0639fdp-5",
    )),
    "B5s4": ("BAB", 4, False, 5, (
        "B 0x1.b5532c2d9ff5bp-5 -0x1.07b2201291407p-5",
        "A 0x1.2f1a9fbe76c8bp-3 0x0.0p+0",
        "B 0x1.90a04019a3db2p-3 0x1.96aefd10d4300p-4",
        "A 0x1.cbb2d3f215059p-3 0x0.0p+0",
        "B 0x1.01057a6d7a13cp-2 -0x1.2ec4869194d1dp-3",
        "A 0x1.05328c4f7431cp-2 0x0.0p+0",
        "B 0x1.01057a6d7a13cp-2 0x1.2ec4869194d1dp-3",
        "A 0x1.cbb2d3f215059p-3 0x0.0p+0",
        "B 0x1.90a04019a3db2p-3 -0x1.96aefd10d4300p-4",
        "A 0x1.2f1a9fbe76c8bp-3 0x0.0p+0",
        "B 0x1.b5532c2d9ff5bp-5 0x1.07b2201291407p-5",
    )),
    "B15s6": ("BAB", 6, False, 15, (
        "B 0x1.eb851eb851eb8p-6 -0x1.7be9957e2175dp-9",
        "A 0x1.4b79c0ec28096p-4 0x0.0p+0",
        "B 0x1.69885303b3ba8p-4 0x1.385df6eb4aa7ep-6",
        "A 0x1.13ec9129c0606p-4 0x0.0p+0",
        "B 0x1.1fce450c3a67ap-4 -0x1.ac30a27cc8c6ep-5",
        "A 0x1.d534fbbdcf466p-5 0x0.0p+0",
        "B 0x1.a2278c06bb465p-5 0x1.367cd09528e81p-4",
        "A 0x1.07521ff66e051p-4 0x0.0p+0",
        "B 0x1.4bd354e7deae2p-5 -0x1.46e92b765e488p-4",
        "A 0x1.c4e9eaafa424dp-5 0x0.0p+0",
        "B 0x1.f59f0e86ec0c8p-6 0x1.292705e5a15bap-4",
        "A 0x1.a4715aab071a9p-6 0x0.0p+0",
        "B 0x1.a7ee779fbc1dep-4 -0x1.21ee6203b0fa0p-5",
        "A 0x1.b07f8d115287fp-4 0x0.0p+0",
        "B 0x1.5f74748939478p-4 0x1.6e6a80f9d083cp-7",
        "A 0x1.65386e01b7198p-4 0x0.0p+0",
        "B 0x1.5f74748939478p-4 -0x1.6e6a80f9d083cp-7",
        "A 0x1.b07f8d115287fp-4 0x0.0p+0",
        "B 0x1.a7ee779fbc1dep-4 0x1.21ee6203b0fa0p-5",
        "A 0x1.a4715aab071a9p-6 0x0.0p+0",
        "B 0x1.f59f0e86ec0c8p-6 -0x1.292705e5a15bap-4",
        "A 0x1.c4e9eaafa424dp-5 0x0.0p+0",
        "B 0x1.4bd354e7deae2p-5 0x1.46e92b765e488p-4",
        "A 0x1.07521ff66e051p-4 0x0.0p+0",
        "B 0x1.a2278c06bb465p-5 -0x1.367cd09528e81p-4",
        "A 0x1.d534fbbdcf466p-5 0x0.0p+0",
        "B 0x1.1fce450c3a67ap-4 0x1.ac30a27cc8c6ep-5",
        "A 0x1.13ec9129c0606p-4 0x0.0p+0",
        "B 0x1.69885303b3ba8p-4 -0x1.385df6eb4aa7ep-6",
        "A 0x1.4b79c0ec28096p-4 0x0.0p+0",
        "B 0x1.eb851eb851eb8p-6 0x1.7be9957e2175dp-9",
    )),
    "pal2_b0.25_0.25": ("BAB", 2, False, 2, (
        "B 0x1.0000000000000p-2 0x1.0000000000000p-2",
        "A 0x1.0000000000000p-1 0x0.0p+0",
        "B 0x1.0000000000000p-1 -0x1.0000000000000p-1",
        "A 0x1.0000000000000p-1 0x0.0p+0",
        "B 0x1.0000000000000p-2 0x1.0000000000000p-2",
    )),
}


def test_catalog_contents():
    assert len(ALL_NAMES) == 14
    for expected in ("strang", "triple_jump4", "S31", "S32", "S4",
                     "NB5s4", "NB6s4", "NB8s5", "NB9s5", "NA11s6", "NB11s6",
                     "B3s3", "B5s4", "B15s6"):
        assert expected in ALL_NAMES


def test_catalog_pinned_bit_for_bit():
    def row(s):
        return (s.kind, s.order, s.rkn, s.stages, tuple(
            f"{f.op} {complex(f.coeff).real.hex()} {complex(f.coeff).imag.hex()}"
            for f in s.factors))

    got = {s.name: row(s) for s in catalog() + [drift_comparator()]}
    assert list(got) == list(CATALOG_PIN)
    for name, want in CATALOG_PIN.items():
        assert got[name] == want, name


def test_get_scheme_unknown():
    with pytest.raises(KeyError, match=r"unknown scheme 'nope'; available: \['S31', "):
        get_scheme("nope")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_schemes_consistent_and_reversible(name):
    s = get_scheme(name)
    assert s.is_consistent
    assert s.is_symmetric_conjugate
    assert abs(s.a_sum - 1.0) <= 1e-12
    assert abs(s.b_sum - 1.0) <= 1e-12


def _audit_split(rkn: bool):
    """5x5 real split, seed 0: symmetric A and B, or for an RKN scheme a
    rank-one B = u w^T with w^T u = 0, so that B @ B = 0 and [B,[B,[B,A]]]
    vanishes, the condition under which an RKN scheme has its order."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 5))
    if rkn:
        u, w = rng.standard_normal(5), rng.standard_normal(5)
        w -= (w @ u) / (u @ u) * u
        return (m + m.T) / 2, np.outer(u, w)
    b = rng.standard_normal((5, 5))
    return (m + m.T) / 2, (b + b.T) / 2


def _order_residuals(scheme, a, b):
    """||E_k||_F / ||(A+B)^k / k!||_F for k = 1..p, where E_k is the z^k
    coefficient of prod_j exp(z c_j X_j) - exp(z (A+B)).

    Each factor is its Taylor polynomial of degree p, and the product is
    truncated at degree p: exact order conditions, with no contour and no
    expm (Blanes and Casas, A Concise Introduction to Geometric Numerical
    Integration, 2016, ch. 3)."""
    p, eye = scheme.order, np.eye(len(a))
    series = [eye] + [np.zeros_like(a)] * p  # the step's coefficients of z^0..z^p
    for f in scheme.factors:  # application order: each factor multiplies on the left
        x = f.coeff * (a if f.op == "A" else b)
        taylor = [eye]
        for k in range(1, p + 1):
            taylor.append(taylor[-1] @ x / k)
        series = [sum(taylor[j] @ series[k - j] for j in range(k + 1))
                  for k in range(p + 1)]
    exact = [eye]
    for k in range(1, p + 1):
        exact.append(exact[-1] @ (a + b) / k)
    return [float(np.linalg.norm(series[k] - exact[k]) / np.linalg.norm(exact[k]))
            for k in range(1, p + 1)]


# Largest residual over the catalog, in float64, with NB6s4 polished: at most
# about 2.3e-16 for strang, S31, S32, S4, NB5s4, NB6s4 and B5s4, 2.9e-15 and
# 6.4e-15 for triple_jump4 and B3s3, and 3.7e-14 to 1.4e-13 for the order-5
# and order-6 schemes, whose longer products gather more rounding.  The bound
# sits about 7x above the worst of them (B15s6) and 18x below the 1.8e-11 of
# NB6s4's printed coefficients, which met its order conditions only to a
# solve stopped early.
ORDER_RESIDUAL_BOUND = 1e-12


@pytest.mark.parametrize("name", ALL_NAMES)
def test_coefficients_meet_their_order_conditions(name):
    s = get_scheme(name)
    assert max(_order_residuals(s, *_audit_split(s.rkn))) <= ORDER_RESIDUAL_BOUND


@pytest.mark.parametrize(
    "name,stages",
    [("strang", 1), ("S31", 2), ("S32", 3), ("S4", 3), ("triple_jump4", 3),
     ("NB5s4", 5), ("NB6s4", 6), ("NB8s5", 8), ("NB9s5", 9),
     ("NA11s6", 11), ("NB11s6", 11), ("B3s3", 3), ("B5s4", 5), ("B15s6", 15)],
)
def test_stage_counts(name, stages):
    assert get_scheme(name).stages == stages


def test_factor_validation():
    with pytest.raises(SchemeError):
        Factor("C", 1.0)
    with pytest.raises(SchemeError):
        SplittingScheme("x", 2, False, ())
    with pytest.raises(SchemeError):  # adjacent equal tags
        SplittingScheme(
            "x", 2, False,
            (Factor("A", 0.5), Factor("A", 0.5), Factor("B", 1.0)),
        )


def test_kind_follows_the_first_factor():
    assert SplittingScheme("x", 1, False, (Factor("A", 1.0),)).kind == "ABA"
    assert SplittingScheme("x", 1, False, (Factor("B", 1.0),)).kind == "BAB"


def test_no_adjacent_equal_tags_in_catalog():
    for s in catalog():
        tags = [f.op for f in s.factors]
        assert all(t1 != t2 for t1, t2 in zip(tags, tags[1:]))


def test_expand_entry_bab_central_a():
    """Hand-expanded mirror oracle for a small synthetic BAB entry."""
    a0, ar = 0.3 + 0.1j, 0.4
    b0, b1 = 0.2 + 0.2j, 0.3 - 0.2j
    s = schemes._reversible("tiny", "BAB", 2, False, a=(a0, ar), b=(b0, b1))
    expected = [
        Factor("B", b0), Factor("A", a0), Factor("B", b1),
        Factor("A", ar),
        Factor("B", b1.conjugate()), Factor("A", a0.conjugate()),
        Factor("B", b0.conjugate()),
    ]
    assert list(s.factors) == expected
    assert s.is_symmetric_conjugate and s.is_consistent


def test_expand_entry_rejects_complex_central():
    with pytest.raises(SchemeError, match="central A-coefficient must be real"):
        schemes._reversible("bad", "BAB", 2, False,
                            a=(0.3 + 0.1j, 0.4 + 0.05j), b=(0.2 + 0.2j, 0.3 - 0.2j))


def test_expand_entry_rejects_inconsistent_closure():
    with pytest.raises(SchemeError, match="sum"):
        schemes._reversible("bad", "BAB", 2, False,
                            a=(0.3 + 0.1j, 0.4), b=(0.2 + 0.2j, 0.25 - 0.2j))


@pytest.mark.parametrize("kind,a,b", [
    ("BAB", (1.0, 7.0), (0.5,)),            # lead list shorter: 7.0 unused
    ("BAB", (1.0,), (0.25, 0.25, 0.5)),     # lead list two longer
    ("ABA", (), ()),                        # nothing to expand
    ("BBA", (1.0,), (1.0,)),                # not a composition pattern
])
def test_expand_entry_rejects_other_shapes(kind, a, b):
    with pytest.raises(SchemeError):
        schemes._reversible("bad", kind, 2, False, a=a, b=b)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_conjugate_reverse_identity_for_reversible_schemes(name):
    # symmetric-conjugate <=> the reversed conjugate is the scheme itself
    s = get_scheme(name)
    t = [Factor(f.op, f.coeff.conjugate()) for f in reversed(s.factors)]
    assert all(
        f.op == g.op and abs(f.coeff - g.coeff) <= 1e-15
        for f, g in zip(s.factors, t)
    )


def test_drift_comparator_shape():
    s = drift_comparator()
    # palindromic: the reversed factor sequence is the scheme itself
    assert all(f.op == g.op and abs(f.coeff - g.coeff) <= 1e-15
               for f, g in zip(s.factors, reversed(s.factors)))
    assert not s.is_symmetric_conjugate
    assert s.is_consistent
    # kinetic weights stay real so the Fourier multiplier keeps modulus one
    assert all(f.coeff.imag == 0.0 for f in s.factors if f.op == "A")


def test_delta_norms_strang():
    assert delta_norms(get_scheme("strang")) == (
        pytest.approx(1.0), pytest.approx(1.0))


@given(
    a_re=st.floats(0.05, 0.45), a_im=st.floats(-0.4, 0.4),
    b_re=st.floats(0.05, 0.45), b_im=st.floats(-0.4, 0.4),
)
def test_expansion_is_always_symmetric_conjugate(a_re, a_im, b_re, b_im):
    """Any half-sequence closed to consistency expands to a reversible scheme."""
    a0 = complex(a_re, a_im)
    ar = 1.0 - 2.0 * a_re  # real central closure
    b0 = complex(b_re, b_im)
    b1 = complex(0.5 - b_re, b_im / 2.0)
    s = schemes._reversible("prop", "BAB", 2, False, a=(a0, ar), b=(b0, b1))
    assert s.is_symmetric_conjugate
    assert s.is_consistent


def test_validate_positive_real_parts():
    for name in ("NB5s4", "NB6s4", "NB8s5", "NB9s5", "NA11s6", "NB11s6",
                 "B3s3", "B5s4", "B15s6"):
        assert schemes.validate(get_scheme(name)).positive_real_parts, name
    # higher-order real compositions need a negative middle step
    assert not schemes.validate(get_scheme("triple_jump4")).positive_real_parts
