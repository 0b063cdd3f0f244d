import numpy as np
import pytest
from hypothesis import given, strategies as st

from unisplit import schemes
from unisplit.schemes import (
    Factor,
    SchemeError,
    SplittingScheme,
    TableEntry,
    catalog,
    catalog_names,
    delta_norms,
    drift_comparator,
    expand_entry,
    get_scheme,
)

ALL_NAMES = catalog_names()


def test_catalog_contents():
    assert len(ALL_NAMES) == 14
    for expected in ("strang", "triple_jump4", "S31", "S32", "S4",
                     "NB5s4", "NB6s4", "NB8s5", "NB9s5", "NA11s6", "NB11s6",
                     "B3s3", "B5s4", "B15s6"):
        assert expected in ALL_NAMES


def test_get_scheme_unknown():
    with pytest.raises(KeyError):
        get_scheme("nope")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_schemes_consistent_and_reversible(name):
    s = get_scheme(name)
    assert s.is_consistent
    assert s.is_symmetric_conjugate
    assert abs(s.a_sum - 1.0) <= 1e-12
    assert abs(s.b_sum - 1.0) <= 1e-12


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
        SplittingScheme("x", "ABC", 2, False, (Factor("A", 1.0),))
    with pytest.raises(SchemeError):
        SplittingScheme("x", "ABA", 2, False, ())
    with pytest.raises(SchemeError):  # adjacent equal tags
        SplittingScheme(
            "x", "ABA", 2, False,
            (Factor("A", 0.5), Factor("A", 0.5), Factor("B", 1.0)),
        )


def test_no_adjacent_equal_tags_in_catalog():
    for s in catalog():
        tags = [f.op for f in s.factors]
        assert all(t1 != t2 for t1, t2 in zip(tags, tags[1:]))


def test_expand_entry_bab_central_a():
    """Hand-expanded mirror oracle for a small synthetic BAB entry."""
    a0, ar = 0.3 + 0.1j, 0.4
    b0, b1 = 0.2 + 0.2j, 0.3 - 0.2j
    entry = TableEntry("tiny", "BAB", 2, False, a=(a0, ar), b=(b0, b1),
                       central="A")
    s = expand_entry(entry)
    expected = [
        Factor("B", b0), Factor("A", a0), Factor("B", b1),
        Factor("A", ar),
        Factor("B", b1.conjugate()), Factor("A", a0.conjugate()),
        Factor("B", b0.conjugate()),
    ]
    assert list(s.factors) == expected
    assert s.is_symmetric_conjugate and s.is_consistent


def test_expand_entry_rejects_complex_central():
    entry = TableEntry("bad", "BAB", 2, False,
                       a=(0.3 + 0.1j, 0.4 + 0.05j), b=(0.2 + 0.2j, 0.3 - 0.2j),
                       central="A")
    with pytest.raises(SchemeError):
        expand_entry(entry)


def test_expand_entry_rejects_inconsistent_closure():
    entry = TableEntry("bad", "BAB", 2, False,
                       a=(0.3 + 0.1j, 0.4), b=(0.2 + 0.2j, 0.25 - 0.2j),
                       central="A")
    with pytest.raises(SchemeError, match="sum"):
        expand_entry(entry)


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
    with pytest.raises(SchemeError):
        drift_comparator(beta=0.6 + 0.1j)  # centre weight loses positivity


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
    entry = TableEntry("prop", "BAB", 2, False, a=(a0, ar), b=(b0, b1),
                       central="A")
    s = expand_entry(entry)
    assert s.is_symmetric_conjugate
    assert s.is_consistent


def test_validate_positive_real_parts():
    for name in ("NB5s4", "NB6s4", "NB8s5", "NB9s5", "NA11s6", "NB11s6",
                 "B3s3", "B5s4", "B15s6"):
        assert schemes.validate(get_scheme(name)).positive_real_parts, name
    # higher-order real compositions need a negative middle step
    assert not schemes.validate(get_scheme("triple_jump4")).positive_real_parts
