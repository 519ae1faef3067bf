import numpy as np
import pytest
from test_rng import stream, uniform

from censim.disagg import huntington_hill
from censim.errors import DataError
from censim.synthgen import (FLOW_AGE_CLASSES, SynthSpec, _immigrants,
                             _initial_population, _kernel, _region_mult, degrade,
                             emigration_probability, generate_truth,
                             internal_probability, mortality_probability)
from censim.table import SEXES, CensusTable, ResolutionSpec

SPEC = SynthSpec(regions=("10101", "10102", "20101"), level="municipalities",
                 years=(2000, 2004), base=500.0, seed=3)


@pytest.fixture(scope="module")
def bundle():
    return generate_truth(SPEC)


def sum_by(table, pick):
    out = {}
    for key, v in table.items():
        g = pick(key)
        out[g] = out.get(g, 0) + v
    return out


def test_regeneration_is_bit_identical(bundle):
    again = generate_truth(SPEC)
    for name, t in bundle.items():
        if name == "m_by_age":
            assert {lo: dict(x.items()) for lo, x in t.items()} == \
                {lo: dict(x.items()) for lo, x in again[name].items()}
        else:
            assert t == again[name], name


def test_seed_changes_the_bundle():
    other = generate_truth(SynthSpec(regions=SPEC.regions, level=SPEC.level,
                                     years=SPEC.years, base=SPEC.base, seed=4))
    assert dict(other["P"].items()) != dict(generate_truth(SPEC)["P"].items())


def test_balance_holds_exactly_everywhere(bundle):
    pop = sum_by(bundle["P"], lambda k: (k[0], k[1], k[2]))
    flows = {name: sum_by(bundle[name], lambda k: (k[0], k[1], k[2]))
             for name in ("B", "D", "E", "I", "IE", "II")}
    y0, y1 = SPEC.years
    for y in range(y0, y1):
        for r in SPEC.regions:
            for s in ("m", "f"):
                key = (y, r, s)
                residual = (pop.get((y + 1, r, s), 0) - pop.get(key, 0)
                            - flows["B"].get(key, 0) - flows["I"].get(key, 0)
                            - flows["II"].get(key, 0) + flows["D"].get(key, 0)
                            + flows["E"].get(key, 0) + flows["IE"].get(key, 0))
                assert residual == 0, key


def test_births_by_child_sex_match_births_by_mother_age(bundle):
    by_child = sum_by(bundle["B"], lambda k: (k[0], k[1]))
    by_mother = sum_by(bundle["B_m"], lambda k: (k[0], k[1]))
    assert by_child == by_mother
    assert all(k[2] == "f" for k in bundle["B_m"].keys())


def test_flow_tables_are_consistent(bundle):
    assert bundle["IE"].total() == bundle["II"].total() == bundle["M"].total()
    merged = {}
    for t in bundle["m_by_age"].values():
        for k, v in t.items():
            merged[k] = merged.get(k, 0) + v
    assert merged == dict(bundle["M"].items())
    assert all(k[1] != k[3] for k in bundle["M"].keys())


def test_tables_are_integer_and_nonnegative(bundle):
    for name, t in bundle.items():
        if name == "m_by_age":
            continue
        assert t.integer
        assert all(float(v).is_integer() and v >= 0 for v in
                   dict(t.items()).values())


def test_degrade_five_year_classes_sum(bundle):
    P = bundle["P"]
    target = ResolutionSpec(SPEC.years, SPEC.level,
                            ages=tuple(range(0, 101, 5)), open_age=100)
    coarse = degrade(P, target)
    assert coarse.resolution == target
    picked = (2001, "10101", "f")
    want = sum(P[(2001, "10101", "f", a)] for a in range(15, 20))
    assert coarse[(2001, "10101", "f", 15)] == want
    assert coarse.total() == P.total()


def test_degrade_drops_sex_by_summation(bundle):
    P = bundle["P"]
    target = ResolutionSpec(SPEC.years, SPEC.level, sexes=(),
                            ages=tuple(range(101)), open_age=100)
    coarse = degrade(P, target)
    key = (2000, "10102", "-", 40)
    assert coarse[key] == P[(2000, "10102", "m", 40)] + P[(2000, "10102", "f", 40)]


def test_degrade_levels_and_years(bundle):
    P = bundle["P"]
    target = ResolutionSpec((2001, 2002), "districts",
                            ages=tuple(range(101)), open_age=100)
    coarse = degrade(P, target)
    assert coarse[(2001, "101", "m", 30)] == \
        P[(2001, "10101", "m", 30)] + P[(2001, "10102", "m", 30)]
    assert coarse.resolution.years == (2001, 2002)
    assert not any(k[0] == 2000 for k in coarse.keys())


def test_degrade_to_ageless_total(bundle):
    B = bundle["B"]
    target = ResolutionSpec((2000, 2003), "country", sexes=(), ages=(0,),
                            open_age=None)
    # the births table is already ageless; only region and sex collapse
    coarse = degrade(B, target)
    assert coarse.total() == B.total()

    P = bundle["P"]
    aged = ResolutionSpec(SPEC.years, SPEC.level, ages=(0,), open_age=0)
    flat = degrade(P, aged)
    assert flat[(2000, "10101", "m", 0)] == \
        sum(v for k, v in P.items() if k[:3] == (2000, "10101", "m"))


def test_degrade_rejects_incomparable_targets(bundle):
    P = bundle["P"]
    with pytest.raises(DataError):
        degrade(P, ResolutionSpec(SPEC.years, "municipalities_districts",
                                  ages=tuple(range(101)), open_age=100))
    with pytest.raises(DataError):
        degrade(P, ResolutionSpec(SPEC.years, SPEC.level, sexes=("f",),
                                  ages=tuple(range(101)), open_age=100))
    with pytest.raises(DataError):
        degrade(P, ResolutionSpec((1990, 2004), SPEC.level,
                                  ages=tuple(range(101)), open_age=100))
    banded = degrade(P, ResolutionSpec(SPEC.years, SPEC.level,
                                       ages=tuple(range(0, 101, 20)),
                                       open_age=100))
    with pytest.raises(DataError, match="straddles"):
        degrade(banded, ResolutionSpec(SPEC.years, SPEC.level,
                                       ages=(0, 30, 60, 100), open_age=100))


def test_degrade_od_levels(bundle):
    M = bundle["M"]
    target = ResolutionSpec((2000, 2003), "districts", od=True)
    coarse = degrade(M, target)
    assert coarse.total() == M.total()
    # flows between municipalities of one district become district self-flows
    assert coarse[(2000, "101", "m", "101")] == \
        M[(2000, "10101", "m", "10102")] + M[(2000, "10102", "m", "10101")]


def test_spec_validation():
    with pytest.raises(DataError):
        SynthSpec(regions=("10101",), level="municipalities", years=(2000, 2002))
    with pytest.raises(DataError):
        SynthSpec(regions=("10101", "banana"), level="municipalities",
                  years=(2000, 2002))
    with pytest.raises(DataError):
        SynthSpec(regions=("10101", "10102"), level="municipalities",
                  years=(2002, 2002))
    for base in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DataError, match="base magnitude must be finite and positive"):
            SynthSpec(regions=("10101", "10102"), level="municipalities",
                      years=(2000, 2002), base=base)
    # each rate parameter holds three finite numbers, each level is finite
    # and non-negative; the message names the field
    for key, bad in (("fertility0", (0.05, 28.0)), ("fertility_drift", (0.1,)),
                     ("mortality_mult0", (1.0, 1.0)), ("mortality_drift", 0.004),
                     ("mortality_mult0", (1.0, np.nan, 1.0)),
                     ("fertility0", (0.05, np.inf, 5.0)), ("mortality_drift", ("a", "b", "c")),
                     ("emig_level", -0.2), ("ie_level", -0.2), ("ie_level", np.nan),
                     ("im_level", np.inf)):
        with pytest.raises(DataError, match=f"^{key} must"):
            SynthSpec(regions=("10101", "10102"), level="municipalities",
                      years=(2000, 2002), **{key: bad})
    SynthSpec(regions=("10101", "10102"), level="municipalities", years=(2000, 2002),
              emig_level=0.0, ie_level=0, im_level=0.0, mortality_drift=[0, 0, 0])


# The per-region loops synthgen ran before its array expressions, on the
# scalar SplitMix64 reference; the array code must match them exactly.

DIFF_SPECS = [
    SPEC,
    SynthSpec(regions=tuple(f"101{m:02d}" for m in range(1, 8)),
              level="municipalities", years=(2000, 2003), base=300.0, seed=11),
    SynthSpec(regions=tuple(f"{(1 + d // 30) * 100 + 1 + d % 30}{m:02d}"
                            for d in range(8) for m in range(1, 21)),
              level="municipalities", years=(2000, 2002), base=400.0, seed=42),
]
DIFF_IDS = [f"{len(spec.regions)}regions" for spec in DIFF_SPECS]


def ref_region_mult(spec, i):
    return 0.6 + 0.8 * uniform(stream(spec.seed, i + 1, 0), 0)


def ref_kernel(spec):
    n = len(spec.regions)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            noise = uniform(stream(spec.seed, i + 1, j + 1), 1)
            w[i, j] = 1.0 / (1.0 + abs(i - j)) + 0.5 * noise
    return w


def ref_initial_population(spec):
    ages = np.arange(101, dtype=float)
    profile = np.exp(-((ages / 62.0) ** 1.8)) + 0.12 * np.exp(
        -(((ages - 30.0) / 12.0) ** 2))
    n = len(spec.regions)
    out = np.zeros((n, 2, 101), dtype=np.int64)
    for i in range(n):
        mult = spec.base * ref_region_mult(spec, i)
        out[i, 0] = np.round(mult * profile * 0.505).astype(np.int64)
        out[i, 1] = np.round(mult * profile * 0.495).astype(np.int64)
    return out


def ref_immigrants(spec, year):
    shape = np.exp(-(((np.arange(101, dtype=float) - 27.0) / 14.0) ** 2))
    dy = year - spec.years[0]
    n = len(spec.regions)
    out = np.zeros((n, 2, 101), dtype=np.int64)
    for i in range(n):
        level = spec.im_level * spec.base * ref_region_mult(spec, i) * (1 + 0.01 * dy)
        out[i, 0] = np.round(level * shape * 0.52).astype(np.int64)
        out[i, 1] = np.round(level * shape * 0.48).astype(np.int64)
    return out


def ref_removals(spec, year, n):
    """Deaths, emigrants and internal movers of head counts n, cell by cell."""
    q_death = {s: mortality_probability(spec, year, s) for s in ("m", "f")}
    q_emig = emigration_probability(spec)
    q_ie = internal_probability(spec)
    d, e, ie = np.zeros_like(n), np.zeros_like(n), np.zeros_like(n)
    for i in range(len(spec.regions)):
        for si, s in enumerate(("m", "f")):
            d[i, si] = np.round(q_death[s] * n[i, si]).astype(np.int64)
            e[i, si] = np.round(q_emig * n[i, si]).astype(np.int64)
            ie[i, si] = np.round(q_ie * n[i, si]).astype(np.int64)
    over = d + e + ie - n
    ie -= np.clip(over, 0, ie)
    over = d + e - n
    e -= np.clip(over, 0, e)
    return d, e, ie


@pytest.mark.parametrize("spec", DIFF_SPECS, ids=DIFF_IDS)
def test_kernel_matches_the_per_pair_loop(spec):
    assert np.array_equal(_kernel(spec), ref_kernel(spec))


@pytest.mark.parametrize("spec", DIFF_SPECS, ids=DIFF_IDS)
def test_region_draws_match_the_per_region_loops(spec):
    y0, y1 = spec.years
    mult = _region_mult(spec)
    assert np.array_equal(
        mult, [ref_region_mult(spec, i) for i in range(len(spec.regions))])
    assert np.array_equal(_initial_population(spec, mult),
                          ref_initial_population(spec))
    assert np.array_equal(_immigrants(spec, mult),
                          [ref_immigrants(spec, y) for y in range(y0, y1)])


@pytest.mark.parametrize("spec", DIFF_SPECS, ids=DIFF_IDS)
def test_removals_match_the_per_cell_rounding(spec):
    y0, y1 = spec.years
    truth = generate_truth(spec)
    ages = range(101)

    def grid(name, y):
        return truth[name].grid([y], spec.regions, SEXES, ages)[0].astype(np.int64)

    for y in range(y0, y1):
        want = ref_removals(spec, y, grid("P", y))
        got = tuple(grid(name, y) for name in ("D", "E", "IE"))
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), y


@pytest.mark.parametrize("spec", DIFF_SPECS, ids=DIFF_IDS)
def test_flows_match_the_per_cell_splits(spec):
    # each (origin, sex, age) cell's movers split over the other regions,
    # one huntington_hill call per cell (memoized: the split depends only on
    # the origin and the count), summed into II, M and the age-class tables
    y0, y1 = spec.years
    truth = generate_truth(spec)
    kernel = ref_kernel(spec)
    regions, ages = spec.regions, range(101)
    split = {}
    ii = np.zeros((y1 - y0, len(regions), 2, 101), dtype=np.int64)
    od = {lo: {} for lo in FLOW_AGE_CLASSES}
    for y in range(y0, y1):
        ie = truth["IE"].grid([y], regions, SEXES, ages)[0].astype(np.int64)
        for i, si, a in zip(*np.nonzero(ie)):
            targets = [j for j in range(len(regions)) if j != i]
            x = int(ie[i, si, a])
            if (i, x) not in split:
                split[i, x] = huntington_hill(x, kernel[i, targets].tolist())
            lo = max(c for c in FLOW_AGE_CLASSES if c <= a)
            for j, v in zip(targets, split[i, x]):
                if v:
                    ii[y - y0, j, si, a] += v
                    key = (y, regions[i], SEXES[si], regions[j])
                    od[lo][key] = od[lo].get(key, 0) + v
    assert np.array_equal(truth["II"].grid(range(y0, y1), regions, SEXES, ages), ii)
    merged = {}
    for lo, flows in od.items():
        assert dict(truth["m_by_age"][lo].items()) == flows, lo
        for key, v in flows.items():
            merged[key] = merged.get(key, 0) + v
    assert dict(truth["M"].items()) == merged


def test_each_origin_is_ranked_again_only_when_its_largest_count_grows(monkeypatch):
    # origin i's award sequence is ranked in the first year, as far as its
    # largest (sex, age) count, and again only in a year whose largest
    # count passes every earlier one; the 160-region spec takes that path,
    # so test_flows_match_the_per_cell_splits covers the re-ranked prefixes
    import censim.synthgen as synthgen

    calls = []
    real = synthgen.huntington_hill_sequences
    monkeypatch.setattr(synthgen, "huntington_hill_sequences",
                        lambda p, tops: calls.append((p, tops)) or real(p, tops))
    again = {}
    for spec in DIFF_SPECS:
        calls.clear()
        truth = generate_truth(spec)
        y0, y1 = spec.years
        n_r = len(spec.regions)
        ie = truth["IE"].grid(range(y0, y1), spec.regions, SEXES, range(101))
        ranked, expected = np.zeros(n_r), []
        for top in ie.reshape(y1 - y0, n_r, -1).max(axis=2):
            grow = np.flatnonzero(top > ranked)
            if grow.size:
                expected.append((grow.tolist(), top[grow].tolist()))
            ranked = np.maximum(ranked, top)
        kernel = _kernel(spec)
        assert len(calls) == len(expected)
        assert expected[0][0] == list(range(n_r))
        for (p, tops), (grow, want) in zip(calls, expected):
            assert np.array_equal(p, kernel[grow]) and tops.tolist() == want
        again[n_r] = sum(len(grow) for grow, _ in expected[1:])
    assert again[160] > 0
