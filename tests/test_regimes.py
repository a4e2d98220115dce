"""Every entry point that takes ell admits exactly the ell of its regime.

The regimes are odd ell >= 3, even ell >= 4 and q = -1 at ell = 2
(presentations.REGIMES).  An entry point refuses an ell outside its regime
with a ParamOutOfRange before it builds anything, so no ValueError of the
field or polynomial constructors escapes.
"""

import pytest

from qsl2.catalog import verify_entry
from qsl2.errors import ParamOutOfRange, ParityMismatch
from qsl2.presentations import (REGIMES, distinguished_subalgebra,
                                quotient_ideal, require_parity, sl2_algebra)
from qsl2.subgroups import SubgroupDatum, validate_datum

ELLS = range(-2, 13)
PAIRS = [(parity, ell) for parity in REGIMES for ell in ELLS]


def admits(parity: str, ell: int) -> bool:
    """The split of the paper, written out apart from REGIMES."""
    return {"odd": ell >= 3 and ell % 2 == 1,
            "even": ell >= 4 and ell % 2 == 0,
            "minus_one": ell == 2}[parity]


def refuses(call) -> bool:
    """True if call raises ParamOutOfRange, False if it returns; any other
    exception fails the test."""
    try:
        call()
    except ParamOutOfRange:
        return True
    return False


def test_regimes_are_the_three_of_the_paper():
    assert REGIMES == {"odd": "odd ell >= 3", "even": "even ell >= 4",
                       "minus_one": "ell = 2"}


@pytest.mark.parametrize("parity, ell", PAIRS)
def test_require_parity_admits_the_regime(parity, ell):
    if admits(parity, ell):
        require_parity(parity, ell, "x")
    else:
        with pytest.raises(ParityMismatch,
                           match=f"x needs {REGIMES[parity]}, got {ell}"):
            require_parity(parity, ell, "x")


@pytest.mark.parametrize("parity", ["generic", "", None, ["odd"]])
def test_require_parity_refuses_a_parity_that_names_no_regime(parity):
    for ell in (2, 3, 4):
        with pytest.raises(ParityMismatch, match="unknown parity"):
            require_parity(parity, ell, "x")


@pytest.mark.parametrize("parity, ell", PAIRS)
def test_sl2_algebra(parity, ell):
    assert refuses(lambda: sl2_algebra(parity, ell)) == (not admits(parity,
                                                                     ell))


@pytest.mark.parametrize("kind, parity", [("widehat", "odd"),
                                          ("overline", "even")])
@pytest.mark.parametrize("ell", ELLS)
def test_quotient_ideal(kind, parity, ell):
    assert refuses(lambda: quotient_ideal(kind, ell)) == (not admits(parity,
                                                                     ell))


@pytest.mark.parametrize("case, parity", [("L_odd", "odd"),
                                          ("B_minus1", "minus_one"),
                                          ("N_even", "even")])
@pytest.mark.parametrize("ell", ELLS)
def test_distinguished_subalgebra(case, parity, ell):
    assert refuses(
        lambda: distinguished_subalgebra(case, ell)) == (not admits(parity,
                                                                    ell))


@pytest.mark.parametrize("parity, ell", PAIRS)
def test_validate_datum(parity, ell):
    errs = validate_datum(SubgroupDatum(parity=parity, ell=ell))
    if admits(parity, ell):
        assert errs == []
    else:
        assert errs == [f"{parity} parity needs {REGIMES[parity]}, got {ell}"]


# each entry bound to one regime, with valid values of its other parameters
REGIME_ENTRIES = [
    ("widehat-dual", "odd", {}), ("taft", "odd", {}),
    ("central-L", "odd", {}),
    ("overline-dual", "even", {}), ("cz2mn", "even", {"n": 2}),
    ("jdelta", "even", {"n": 2, "p": 2, "r": 1}),
    ("normal-N", "even", {}),
] + [("case-I-full", parity, {"parity": parity}) for parity in REGIMES]


@pytest.mark.parametrize("name, parity, params", REGIME_ENTRIES,
                         ids=[f"{n}-{p}" for n, p, _ in REGIME_ENTRIES])
def test_verify_entry_refuses_outside_its_regime(name, parity, params):
    # an accepted ell runs a full verification: only the refusals run here
    for ell in ELLS:
        if not admits(parity, ell):
            with pytest.raises(ParityMismatch, match=REGIMES[parity]):
                verify_entry(name, ell=ell, **params)


def test_battery_refuses_every_ell_below_two():
    for ell in range(-2, 2):
        with pytest.raises(ParamOutOfRange):
            verify_entry("battery", ell=ell)


@pytest.mark.parametrize("parity", ["generic", "minus-one"])
def test_unknown_parity_is_refused_everywhere(parity):
    for ell in (2, 3, 4):
        # a parity other than minus_one asks for ell >= 3 first
        with pytest.raises(ParamOutOfRange):
            sl2_algebra(parity, ell)
        with pytest.raises(ParityMismatch, match="unknown parity"):
            verify_entry("case-I-full", parity=parity, ell=ell)
        assert validate_datum(SubgroupDatum(parity=parity, ell=ell)) == [
            f"unknown parity {parity!r}"]
