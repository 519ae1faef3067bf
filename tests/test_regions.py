import pytest
from hypothesis import given, strategies as st

from censim.errors import DataError
from censim.regions import (
    LEVELS,
    RegionManifest,
    compare_levels,
    coarser_or_equal,
    is_valid_code,
    parent_region,
    validate_code,
)


def test_parent_municipality_to_district():
    assert parent_region("30101", "municipalities", "districts") == "301"


def test_parent_vienna_municipality_to_country():
    assert parent_region("90001", "municipalities", "country") == "AT"


def test_parent_district_to_federalstate():
    assert parent_region("613", "districts", "federalstates") == "AT-6"


def test_parent_same_level_is_identity():
    assert parent_region("613", "districts", "districts") == "613"


def test_parent_viennese_registration_district_chain():
    reg = "municipalities_registrationdistricts"
    assert parent_region("9010101", reg, "municipalities_districts") == "90101"
    assert parent_region("9010101", reg, "municipalities") == "90001"
    assert parent_region("9010101", reg, "districts_districts") == "901"
    # both routes through the five-digit levels meet at the district
    assert parent_region("9010101", reg, "districts") == "900"
    assert parent_region("9010101", reg, "federalstates") == "AT-9"


def test_parent_non_viennese_registration_district_chain():
    reg = "municipalities_registrationdistricts"
    assert parent_region("10101", reg, "municipalities") == "10101"
    assert parent_region("10101", reg, "districts") == "101"


def test_parent_viennese_municipal_district():
    assert parent_region("923", "districts_districts", "districts") == "900"
    assert parent_region("90101", "municipalities_districts", "municipalities") == "90001"
    assert parent_region("92301", "municipalities_districts", "districts_districts") == "923"


def test_parent_rejects_incomparable_and_finer_targets():
    with pytest.raises(DataError):
        parent_region("30101", "municipalities", "districts_districts")
    with pytest.raises(DataError):
        parent_region("301", "districts", "municipalities")


def test_parent_rejects_malformed_codes():
    with pytest.raises(DataError):
        parent_region("901", "districts", "federalstates")
    with pytest.raises(DataError):
        parent_region("90002", "municipalities", "districts")


def test_compare_levels_examples():
    assert compare_levels("municipalities_districts", "federalstates") == "finer"
    assert compare_levels("federalstates", "municipalities_districts") == "coarser"
    for lvl in LEVELS:
        assert compare_levels(lvl, lvl) == "equal"
    assert compare_levels("municipalities", "districts_districts") == "incomparable"
    assert compare_levels("districts_districts", "municipalities") == "incomparable"


def test_compare_levels_antisymmetric():
    flip = {"finer": "coarser", "coarser": "finer",
            "equal": "equal", "incomparable": "incomparable"}
    for a in LEVELS:
        for b in LEVELS:
            assert compare_levels(b, a) == flip[compare_levels(a, b)]


def test_country_is_coarsest_and_registration_districts_finest():
    for lvl in LEVELS:
        assert coarser_or_equal("country", lvl)
        assert coarser_or_equal(lvl, "municipalities_registrationdistricts")


def test_code_grammar_viennese_cases():
    assert is_valid_code("900", "districts")
    assert not is_valid_code("901", "districts")
    assert not is_valid_code("900", "districts_districts")
    assert is_valid_code("901", "districts_districts")
    assert is_valid_code("923", "districts_districts")
    assert not is_valid_code("924", "districts_districts")
    assert is_valid_code("90001", "municipalities")
    assert not is_valid_code("90101", "municipalities")
    assert is_valid_code("90101", "municipalities_districts")
    assert is_valid_code("92301", "municipalities_districts")
    assert not is_valid_code("90001", "municipalities_districts")
    assert not is_valid_code("92401", "municipalities_districts")
    assert not is_valid_code("90102", "municipalities_districts")
    assert is_valid_code("9010101", "municipalities_registrationdistricts")
    assert is_valid_code("10101", "municipalities_registrationdistricts")
    assert not is_valid_code("90001", "municipalities_registrationdistricts")
    assert not is_valid_code("9000101", "municipalities_registrationdistricts")


def test_code_grammar_plain_cases():
    assert is_valid_code("AT", "country")
    assert not is_valid_code("AT-0", "federalstates")
    assert is_valid_code("AT-9", "federalstates")
    assert not is_valid_code("A-T9", "federalstates")
    assert not is_valid_code("0101", "districts")
    assert not is_valid_code("011", "districts")
    assert is_valid_code("101", "districts")
    assert is_valid_code("10101", "municipalities")
    assert not is_valid_code("1010", "municipalities")


_district = st.builds(
    lambda d1, rest: f"{d1}{rest:02d}",
    st.integers(1, 8), st.integers(0, 99),
)
_municipality = st.builds(
    lambda dist, tail: f"{dist}{tail:02d}",
    _district, st.integers(0, 99),
)


@given(_municipality)
def test_parent_transitive_from_municipalities(code):
    via = parent_region(parent_region(code, "municipalities", "districts"),
                        "districts", "federalstates")
    assert via == parent_region(code, "municipalities", "federalstates")
    assert parent_region(code, "municipalities", "country") == "AT"


@given(st.integers(1, 23), st.integers(0, 99))
def test_parent_routes_commute_for_vienna(md, tail):
    # seven-digit codes reach the district both via municipalities and via
    # the municipal-district split; the results must agree
    code = f"9{md:02d}01{tail:02d}"
    reg = "municipalities_registrationdistricts"
    via_mun = parent_region(
        parent_region(code, reg, "municipalities"), "municipalities", "districts")
    via_dd = parent_region(
        parent_region(code, reg, "districts_districts"), "districts_districts", "districts")
    assert via_mun == via_dd == "900"


def test_manifest_roundtrip_and_descendants():
    manifest = RegionManifest({
        "federalstates": ("AT-1", "AT-2"),
        "districts": ("101", "102", "201", "202"),
        "municipalities": ("10101", "10102", "10201", "20101"),
    })
    assert manifest.descendants("AT-1", "federalstates", "municipalities") == (
        "10101", "10102", "10201")
    assert manifest.descendants("101", "districts", "municipalities") == ("10101", "10102")
    assert manifest.descendants("102", "districts", "municipalities") == ("10201",)
    assert manifest.descendants("201", "districts", "municipalities") == ("20101",)
    assert manifest.descendants("202", "districts", "municipalities") == ()
    assert manifest.descendants("101", "districts", "districts") == ("101",)

    # codes come back sorted per level, whatever order they were listed in
    again = RegionManifest({
        "municipalities": ("20101", "10201", "10102", "10101"),
        "districts": ("202", "201", "102", "101"),
    })
    assert again.codes("municipalities") == manifest.codes("municipalities")
    assert again.codes("districts") == ("101", "102", "201", "202")
    assert not again.has_level("federalstates")


def test_manifest_rejects_bad_codes_and_duplicates():
    with pytest.raises(DataError):
        RegionManifest({"districts": ("901",)})
    with pytest.raises(DataError):
        RegionManifest({"districts": ("101", "101")})
    with pytest.raises(DataError):
        RegionManifest({"nuts3": ("101",)})


def test_validate_code_raises():
    with pytest.raises(DataError):
        validate_code("abc", "districts")
