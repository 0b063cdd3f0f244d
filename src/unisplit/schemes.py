"""Splitting-scheme catalog: coefficient sequences and their expansion.

A scheme is stored as its ordered factor sequence ``(op, coefficient)`` in
APPLICATION order: the first factor in the list is the first exponential
applied to the state, i.e. the rightmost exponential when the step operator is
written as a left-to-right product of matrix exponentials.

Symmetric-conjugate (reversible) schemes equal their own reversed complex
conjugate elementwise; palindromic schemes equal their own reversal.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

__all__ = [
    "Factor",
    "SplittingScheme",
    "ValidationReport",
    "SchemeError",
    "catalog",
    "get_scheme",
    "validate",
    "drift_comparator",
    "delta_norms",
]

CONSISTENCY_TOL = 1e-12
SYMMETRY_TOL = 1e-14
_ZERO_COEFF_TOL = 1e-16


class SchemeError(ValueError):
    """Malformed scheme or inconsistent closure."""


@dataclass(frozen=True)
class Factor:
    """One exponential factor: operator tag ('A' or 'B') and complex coefficient."""

    op: str
    coeff: complex

    def __post_init__(self):
        if self.op not in ("A", "B"):
            raise SchemeError(f"invalid operator tag {self.op!r}")


@dataclass(frozen=True)
class SplittingScheme:
    """Named splitting scheme with factors in application order.

    ``rkn`` marks schemes whose declared order requires the vanishing of the
    nested commutator [B,[B,[B,A]]] (kinetic/potential splits at spectral
    accuracy).
    """

    name: str
    order: int
    rkn: bool
    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise SchemeError("empty factor sequence")
        tags = [f.op for f in self.factors if abs(f.coeff) > _ZERO_COEFF_TOL]
        for t1, t2 in zip(tags, tags[1:]):
            if t1 == t2:
                raise SchemeError(f"{self.name}: adjacent factors share tag {t1}")

    def __hash__(self) -> int:
        # Equal schemes have equal names, so this agrees with __eq__; a str
        # keeps its hash once computed.  The generated hash re-hashed every
        # Factor, and split_step looks its scheme up in the phase cache on
        # every call.
        return hash(self.name)

    @property
    def kind(self) -> str:
        """Composition pattern, "BAB" or "ABA": the first factor's operator leads."""
        return "BAB" if self.factors[0].op == "B" else "ABA"

    def coefficients(self, op: str) -> tuple[complex, ...]:
        return tuple([f.coeff for f in self.factors if f.op == op])

    @property
    def a_sum(self) -> complex:
        return sum(self.coefficients("A"))

    @property
    def b_sum(self) -> complex:
        return sum(self.coefficients("B"))

    @property
    def stages(self) -> int:
        """Cost proxy: number of A-exponentials (BAB) or that minus one (ABA)."""
        n_a = sum(1 for f in self.factors if f.op == "A")
        return n_a if self.kind == "BAB" else n_a - 1

    @property
    def is_consistent(self) -> bool:
        return (
            abs(self.a_sum - 1.0) <= CONSISTENCY_TOL
            and abs(self.b_sum - 1.0) <= CONSISTENCY_TOL
        )

    @property
    def is_symmetric_conjugate(self) -> bool:
        rev = self.factors[::-1]
        return all(
            f.op == r.op and abs(f.coeff - r.coeff.conjugate()) <= SYMMETRY_TOL
            for f, r in zip(self.factors, rev)
        )


@dataclass(frozen=True)
class ValidationReport:
    consistent: bool
    symmetric_conjugate: bool
    positive_real_parts: bool


def _reversible(name: str, kind: str, order: int, rkn: bool, a, b) -> SplittingScheme:
    """The symmetric-conjugate scheme whose first half a table prints.

    ``a`` and ``b`` are the printed lists, with the closure already resolved.
    ``kind`` names the lead operator; the list lengths fix the central one:

    * BAB, len(b) = len(a):      b0 a0 b1 a1 ... br ar b̄r ... ā0 b̄0   (ar real)
    * BAB, len(b) = len(a) + 1:  b0 a0 ... a_{r-1} br ā_{r-1} ... b̄0   (br real)
    * ABA, len(a) = len(b):      a0 b0 ... ar br ār ... b̄0 ā0          (br real)
    * ABA, len(a) = len(b) + 1:  a0 b0 ... b_{r-1} ar b̄_{r-1} ... ā0   (ar real)

    The second half mirrors the first with conjugated coefficients.  Raises
    :class:`SchemeError` for any other list shape, a complex central
    coefficient or coefficient sums other than 1.
    """
    if kind not in ("ABA", "BAB"):
        raise SchemeError(f"invalid kind {kind!r}")
    lc, tc = (a, b) if kind == "ABA" else (b, a)
    if not lc or len(lc) - len(tc) not in (0, 1):
        raise SchemeError(
            f"{name}: the {kind[0]} list must be as long as the {kind[1]} "
            f"list or one longer, got {len(lc)} and {len(tc)}")
    half = [Factor(op, c) for pair in itertools.zip_longest(lc, tc)
            for op, c in zip(kind, pair) if c is not None]
    central = half[-1]
    if abs(central.coeff.imag) > CONSISTENCY_TOL:
        raise SchemeError(
            f"{name}: central {central.op}-coefficient must be real, "
            f"got {central.coeff}"
        )
    mirror = [Factor(f.op, f.coeff.conjugate()) for f in reversed(half[:-1])]
    scheme = SplittingScheme(name, order, rkn, tuple(half + mirror))
    if not scheme.is_consistent:
        raise SchemeError(f"{name}: the sums of the A- and B-coefficients are "
                          f"{scheme.a_sum} and {scheme.b_sum}, expected 1")
    return scheme


def validate(scheme: SplittingScheme) -> ValidationReport:
    """Diagnostic report: consistency, reversibility and coefficient positivity.

    ``positive_real_parts`` is informational: it is true iff every A-coefficient
    is real positive and every B-coefficient has positive real part.
    """
    a_ok = all(
        abs(c.imag) <= CONSISTENCY_TOL and c.real > 0 for c in scheme.coefficients("A")
    )
    b_ok = all(c.real > 0 for c in scheme.coefficients("B"))
    return ValidationReport(
        consistent=scheme.is_consistent,
        symmetric_conjugate=scheme.is_symmetric_conjugate,
        positive_real_parts=a_ok and b_ok,
    )


def drift_comparator() -> SplittingScheme:
    """Order-2 palindromic BAB scheme with complex potential weights
    beta = (1 + i)/4, 1 - 2 beta, beta.

    Palindromic but *not* symmetric-conjugate, so on real symmetric splits its
    step operator is not conjugate to a unitary map: norm and energy errors
    drift, unlike every symmetric-conjugate catalog entry.  Composing a
    symmetric-conjugate scheme with its conjugate cannot serve here: for real
    symmetric operators the conjugate-coefficient product equals the transpose
    of the original, and the composite inherits the unit-modulus spectrum.

    The ``A`` weights stay real so the kinetic multiplier keeps modulus one;
    only the bounded potential factors carry imaginary parts.
    """
    beta, half = 0.25 + 0.25j, complex(0.5)
    return SplittingScheme(
        name="pal2_b0.25_0.25",
        order=2,
        rkn=False,
        factors=(
            Factor("B", beta),
            Factor("A", half),
            Factor("B", 1.0 - 2.0 * beta),
            Factor("A", half),
            Factor("B", beta),
        ),
    )


def delta_norms(scheme: SplittingScheme) -> tuple[float, float]:
    """(Delta_a, Delta_b): 1-norms of the expanded coefficient sequences."""
    da = sum(abs(c) for c in scheme.coefficients("A"))
    db = sum(abs(c) for c in scheme.coefficients("B"))
    return float(da), float(db)


# ---------------------------------------------------------------------------
# Catalog

_SQRT3 = math.sqrt(3.0)
_SQRT15 = math.sqrt(15.0)
_SQRT59_2 = math.sqrt(59.0 / 2.0)

# order-4 triple jump of Strang steps; weights fixed by 2*g1 + g2 = 1,
# 2*g1**3 + g2**3 = 0
_GAMMA1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_GAMMA2 = 1.0 - 2.0 * _GAMMA1


def _table_entries() -> list[SplittingScheme]:
    a31 = 0.5 + 1j * _SQRT3 / 6.0
    a41 = (3.0 + 1j * _SQRT15) / 12.0

    entries = [
        # low-order reference schemes of the eigenvalue experiments
        _reversible("S31", "BAB", 3, False, a=(a31,), b=(a31 / 2.0, 0.5)),
        _reversible(
            "S32", "BAB", 3, False,
            a=(0.3, 0.4),
            b=(
                13.0 / 126.0 - 1j * _SQRT59_2 / 63.0,
                25.0 / 63.0 + 1j * 5.0 * _SQRT59_2 / 126.0,
            ),
        ),
        _reversible("S4", "BAB", 4, False, a=(a41, 0.5),
                    b=(a41 / 2.0, (9.0 + 1j * _SQRT15) / 24.0)),
        # real-coefficient comparators
        _reversible("strang", "ABA", 2, False, a=(0.5,), b=(1.0,)),
        _reversible(
            "triple_jump4", "ABA", 4, False,
            a=(_GAMMA1 / 2.0, (_GAMMA1 + _GAMMA2) / 2.0),
            b=(_GAMMA1, _GAMMA2),
        ),
    ]

    # --- RKN family (kinetic/potential splits at spectral accuracy) ---
    a0, a1 = 0.17354158169943656, 0.19379086394173623
    b0 = 0.06421454120274125 + 0.0245540186592381j
    b1 = 0.20166370500451958 - 0.0982277975564409j
    entries.append(_reversible(
        "NB5s4", "BAB", 4, True,
        a=(a0, a1, 1.0 - 2.0 * (a0 + a1)),
        b=(b0, b1, 0.5 - (b0.real + b1.real) + 0.1491719824749133j),
    ))

    a0, a1 = 0.2, 0.054855282193224705
    b0 = 0.07 + 0.0194442889280184j
    b1 = 0.16 - 0.20579973914989463j
    b2 = 0.16251793146353252 + 0.21219211960324574j
    entries.append(_reversible(
        "NB6s4", "BAB", 4, True,
        a=(a0, a1, 0.5 - (a0 + a1)),
        b=(b0, b1, b2, 1.0 - 2.0 * (b0.real + b1.real + b2.real)),
    ))

    a0, a1, a2 = 0.13556579817637690, 0.12110548685533656, 0.040926280383255811
    b0 = 0.048 - 0.0045117121645322032j
    b1 = 0.159 + 0.039915395925895825j
    b2 = 0.08808186616153123 - 0.19475521098317861j
    b3 = 0.08139005735125036 + 0.17341123352295854j
    # the printed closure "b4 = 1 - 2 sum b_i" is read with a real-part
    # operator, as for the sibling entries; the complex reading breaks both
    # consistency and the reversal symmetry
    entries.append(_reversible(
        "NB8s5", "BAB", 5, True,
        a=(a0, a1, a2, 0.5 - (a0 + a1 + a2)),
        b=(b0, b1, b2, b3, 1.0 - 2.0 * (b0.real + b1.real + b2.real + b3.real)),
    ))

    a0, a1, a2, a3 = 0.066, 0.066, 0.15406042184345631, 0.20434260458660722
    b0 = 0.03 - 0.026088775868557137j
    b1 = 0.065 + 0.0871906864166141j
    b2 = 0.087791471011534450 - 0.07869869176637824j
    b3 = 0.21903826707051549 + 0.005649631789653575j
    entries.append(_reversible(
        "NB9s5", "BAB", 5, True,
        a=(a0, a1, a2, a3, 1.0 - 2.0 * (a0 + a1 + a2 + a3)),
        b=(b0, b1, b2, b3,
           0.5 - (b0.real + b1.real + b2.real + b3.real) + 0.3080209334852549j),
    ))

    a_list = (0.062770091, 0.011912916558090, 0.20435669618321,
              0.019233264988143, 0.06593857714457)
    b0 = 0.10891717046144 - 0.16165289456182j
    b1 = 0.05673774365156 + 0.19084324113721j
    b2 = 0.00000000664446 - 0.2132590752834j
    b3 = 0.2404799796837 + 0.10112304441789j
    b4 = 0.04313692053520 + 0.11954730647763j
    entries.append(_reversible(
        "NA11s6", "ABA", 6, True,
        a=a_list + (0.5 - sum(a_list),),
        b=(b0, b1, b2, b3, b4,
           1.0 - 2.0 * (b0.real + b1.real + b2.real + b3.real + b4.real)),
    ))

    a_list = (213.0 / 2500.0, 0.047358568390005, 0.1553620075936,
              0.10012117440925, 0.10547836949919)
    b0 = 7.0 / 250.0 - 0.009532915454170j
    b1 = 0.08562523731685 + 0.0718344013568j
    b2 = 0.09331583397900 - 0.09161071812994j
    b3 = 0.11799012127542 + 0.0702739287203j
    b4 = 0.16176918420712 - 0.04327349898459j
    entries.append(_reversible(
        "NB11s6", "BAB", 6, True,
        a=a_list + (1.0 - 2.0 * sum(a_list),),
        b=(b0, b1, b2, b3, b4,
           0.5 - (b0.real + b1.real + b2.real + b3.real + b4.real)
           - 0.2203293328195j),
    ))

    # --- general-split family (no RKN assumption) ---
    a0 = 0.4706
    b0 = 0.1655101882118 + 0.03704896872215j
    entries.append(_reversible(
        "B3s3", "BAB", 3, False,
        a=(a0, 1.0 - 2.0 * a0),
        b=(b0, 0.5 - b0.real - 0.6300845020773j),
    ))

    a0, a1 = 37.0 / 250.0, 0.22446218092466344
    b0 = 0.05338438633498185 - 0.03218942894140047j
    b1 = 0.19561815336463223 + 0.0992879758243923j
    entries.append(_reversible(
        "B5s4", "BAB", 4, False,
        a=(a0, a1, 1.0 - 2.0 * (a0 + a1)),
        b=(b0, b1, 0.5 - (b0.real + b1.real) - 0.14783578044680548j),
    ))

    a_list = (0.08092666015955027, 0.06736427978832901, 0.057276240999706116,
              0.06428730473896961, 0.05528732144478408, 0.02566179136566552,
              0.10559039215618958)
    b_list = (
        0.03 - 0.0028985018717006387j,
        0.08826477458499815 + 0.019065371639195743j,
        0.07026507350715319 - 0.05226928459003309j,
        0.051044248093469226 + 0.07580262639617709j,
        0.040506044227148555 - 0.07981221177569087j,
        0.03061653536468681 + 0.07254698089135206j,
        0.10349890449629792 - 0.03539199012223482j,
    )
    entries.append(_reversible(
        "B15s6", "BAB", 6, False,
        a=a_list + (1.0 - 2.0 * sum(a_list),),
        b=b_list + (0.5 - sum(b.real for b in b_list) + 0.0111821298374971054j,),
    ))

    return entries


@functools.cache
def _by_name() -> dict[str, SplittingScheme]:
    return {s.name: s for s in _table_entries()}


def catalog() -> list[SplittingScheme]:
    """All built-in schemes, expanded and validated."""
    return list(_by_name().values())


def get_scheme(name: str) -> SplittingScheme:
    try:
        return _by_name()[name]
    except KeyError:
        names = list(_by_name())
        raise KeyError(f"unknown scheme {name!r}; available: {names}") from None
