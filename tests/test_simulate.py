import dataclasses

import numpy as np
import pytest

from censim.errors import DataError
from censim.simulate import (
    ScenarioConfig,
    SimParams,
    census_counts,
    init_population,
    run,
)
from censim.table import CensusTable, ResolutionSpec

FULL = tuple(range(101))
LEVEL = "federalstates"


def res(y0, y1, sexes=("m", "f")):
    return ResolutionSpec((y0, y1), LEVEL, sexes=sexes, ages=FULL, open_age=100)


def tab(y0, y1, entries, integer=False, sexes=("m", "f"), name="t"):
    return CensusTable(res(y0, y1, sexes), entries, integer=integer, name=name)


def od_tab(y0, y1, entries, name="M"):
    spec = ResolutionSpec((y0, y1), LEVEL, od=True)
    return CensusTable(spec, entries, name=name)


def make_params(pop, y0, y1, birth=None, death=None, emig=None, imm=None,
                ie=None, od=None, ii=None, m_by_age=None):
    return SimParams(
        population=pop,
        birth_p=tab(y0, y1, birth or {}, sexes=("f",), name="Bp"),
        death_p=tab(y0, y1, death or {}, name="Dp"),
        emig_p=tab(y0, y1, emig or {}, name="Ep"),
        immigrants=tab(y0, y1, imm or {}, name="I"),
        ie_p=None if ie is None else tab(y0, y1, ie, name="IEp"),
        od=od, ii=ii, m_by_age=m_by_age)


def pop_tab(year, entries):
    return tab(year, year, entries, integer=True, name="P")


def sum_by(table, pick):
    out = {}
    for key, v in table.items():
        g = pick(key)
        out[g] = out.get(g, 0) + v
    return out


def test_null_dynamics_is_pure_ageing():
    pop = pop_tab(2000, {
        (2000, "AT-1", "m", 30): 5,
        (2000, "AT-1", "f", 99): 4,
        (2000, "AT-1", "f", 100): 2,
        (2000, "AT-2", "m", 0): 3,
    })
    p = make_params(pop, 2000, 2001)
    out = run(ScenarioConfig(t0=2000, te=2002), p)[0]
    c = out.census
    assert c[(2001, "AT-1", "m", 31)] == 5
    assert c[(2001, "AT-1", "f", 100)] == 6  # 99-year-olds join the open class
    assert c[(2001, "AT-2", "m", 1)] == 3
    assert c[(2002, "AT-1", "m", 32)] == 5
    assert c[(2002, "AT-1", "f", 100)] == 6
    assert len(out.births) == 0 and len(out.deaths) == 0
    for y in (2000, 2001, 2002):
        total = sum(v for k, v in c.items() if k[0] == y)
        assert total == 14


def test_init_identity_scale_reproduces_census():
    entries = {
        (2000, "AT-1", "m", 30): 12,
        (2000, "AT-1", "f", 31): 7,
        (2000, "AT-2", "f", 0): 9,
    }
    state = init_population(pop_tab(2000, entries), 1.0)
    assert census_counts(state) == entries
    assert len(np.unique(state.pid)) == 28


def test_init_scaled_cell_is_exact_fraction():
    state = init_population(pop_tab(2000, {(2000, "AT-1", "f", 20): 1000}),
                            0.1)
    assert census_counts(state) == {(2000, "AT-1", "f", 20): 100}


def test_init_rejects_vanishing_population():
    with pytest.raises(DataError):
        init_population(pop_tab(2000, {(2000, "AT-1", "m", 5): 3}), 0.1)


def test_certain_death_empties_cohort():
    pop = pop_tab(2000, {
        (2000, "AT-1", "m", 30): 50,
        (2000, "AT-1", "f", 40): 30,
    })
    p = make_params(pop, 2000, 2000, death={(2000, "AT-1", "m", 30): 1.0})
    out = run(ScenarioConfig(t0=2000, te=2001), p)[0]
    assert out.census[(2001, "AT-1", "m", 31)] == 0
    assert out.census[(2001, "AT-1", "f", 41)] == 30
    assert dict(out.deaths.items()) == {(2000, "AT-1", "m", 30): 50}


def test_event_tables_are_built_when_first_read(monkeypatch):
    import censim.simulate as simulate

    built = []
    monkeypatch.setattr(simulate, "CensusTable", lambda *a, **kw:
                        built.append(kw["name"]) or CensusTable(*a, **kw))
    pop = pop_tab(2000, {(2000, "AT-1", "m", 30): 50})
    p = make_params(pop, 2000, 2000, death={(2000, "AT-1", "m", 30): 1.0})
    outs = run(ScenarioConfig(t0=2000, te=2001, runs=2), p)
    assert built == ["P", "P"]
    assert dict(outs[1].deaths.items()) == {(2000, "AT-1", "m", 30): 50}
    assert outs[1].deaths is outs[1].deaths
    assert built == ["P", "P", "D"]
    assert [f.name for f in dataclasses.fields(outs[0])] == [
        "census", "births", "deaths", "emigrants", "immigrants", "internal_out",
        "internal_in", "od"]
    assert outs[0].od.name == "M" and len(outs[0].od) == 0
    assert built == ["P", "P", "D", "M"]


def test_open_age_class_uses_terminal_probabilities():
    pop = pop_tab(2000, {(2000, "AT-1", "m", 100): 30})
    p = make_params(pop, 2000, 2000, death={(2000, "AT-1", "m", 100): 1.0})
    out = run(ScenarioConfig(t0=2000, te=2001), p)[0]
    assert dict(out.deaths.items()) == {(2000, "AT-1", "m", 100): 30}
    assert len(out.census) == 1  # only the initial year remains populated


def certain_birth_params(share):
    pop = pop_tab(2000, {(2000, "AT-1", "f", 30): 10})
    p = make_params(pop, 2000, 2000, birth={(2000, "AT-1", "f", 30): 1.0})
    return p, ScenarioConfig(t0=2000, te=2001, male_share=share)


def test_certain_birth_creates_newborns():
    p, cfg = certain_birth_params(1.0)
    out = run(cfg, p)[0]
    assert dict(out.births.items()) == {(2000, "AT-1", "m", 0): 10}
    assert out.census[(2001, "AT-1", "m", 0)] == 10
    assert out.census[(2001, "AT-1", "f", 31)] == 10

    p, cfg = certain_birth_params(0.0)
    out = run(cfg, p)[0]
    assert dict(out.births.items()) == {(2000, "AT-1", "f", 0): 10}


def test_immigrants_join_at_year_end_and_age_correctly():
    pop = pop_tab(2000, {(2000, "AT-1", "m", 20): 5})
    death = {(y, r, s, a): 1.0 for y in (2000, 2001) for r in ("AT-1", "AT-2")
             for s in ("m", "f") for a in (5, 20, 21)}
    p = make_params(pop, 2000, 2001, death=death,
                    imm={(2000, "AT-2", "f", 5): 3})
    out = run(ScenarioConfig(t0=2000, te=2002), p)[0]
    # arrivals face no events in their arrival year, then die the next year
    assert dict(out.immigrants.items()) == {(2000, "AT-2", "f", 5): 3}
    assert out.census[(2001, "AT-2", "f", 5)] == 3
    assert sum_by(out.deaths, lambda k: k[0]) == {2000: 5, 2001: 3}
    assert sum(v for k, v in out.census.items() if k[0] == 2002) == 0


def test_immigrant_totals_scale_through_apportionment():
    pop = pop_tab(2000, {(2000, "AT-1", "m", 50): 100})
    p = make_params(pop, 2000, 2000, imm={
        (2000, "AT-2", "f", 10): 10,
        (2000, "AT-2", "m", 11): 30,
    })
    out = run(ScenarioConfig(t0=2000, te=2001, scale=0.5), p)[0]
    assert dict(out.immigrants.items()) == {
        (2000, "AT-2", "f", 10): 5,
        (2000, "AT-2", "m", 11): 15,
    }


def test_runs_are_deterministic_and_seed_indexed():
    pop = pop_tab(2000, {
        (2000, "AT-1", "m", 40): 120,
        (2000, "AT-1", "f", 28): 150,
    })
    death = {(2000, "AT-1", s, a): 0.3 for s in ("m", "f") for a in (28, 40)}
    birth = {(2000, "AT-1", "f", 28): 0.4}

    def build():
        return make_params(pop, 2000, 2000, birth=birth, death=death)

    cfg = ScenarioConfig(t0=2000, te=2001, runs=2, seed=5)
    first = run(cfg, build())
    second = run(cfg, build())
    assert first == second
    assert first[0].census != first[1].census
    # neighbouring seeds share no run
    other = run(ScenarioConfig(t0=2000, te=2001, runs=2, seed=4), build())
    assert all(a.census != b.census for a in first for b in other)


def balance_residuals(out):
    years = range(out.census.resolution.years[0],
                  out.census.resolution.years[1])
    pop = sum_by(out.census, lambda k: (k[0], k[1], k[2]))
    flows = {name: sum_by(getattr(out, name), lambda k: (k[0], k[1], k[2]))
             for name in ("births", "deaths", "emigrants", "immigrants",
                          "internal_out", "internal_in")}
    residuals = {}
    for (y, r, s) in {(y, k[1], k[2]) for y in years
                      for f in [pop, *flows.values()] for k in f}:
        start = pop.get((y, r, s), 0)
        end = pop.get((y + 1, r, s), 0)
        delta = (flows["births"].get((y, r, s), 0)
                 + flows["immigrants"].get((y, r, s), 0)
                 + flows["internal_in"].get((y, r, s), 0)
                 - flows["deaths"].get((y, r, s), 0)
                 - flows["emigrants"].get((y, r, s), 0)
                 - flows["internal_out"].get((y, r, s), 0))
        residuals[(y, r, s)] = end - start - delta
    return residuals


def test_regional_balance_is_exact_per_run():
    pop = pop_tab(2000, {
        (2000, "AT-1", "m", 40): 200,
        (2000, "AT-1", "f", 30): 220,
        (2000, "AT-2", "m", 55): 180,
        (2000, "AT-2", "f", 31): 160,
    })
    yrs = (2000, 2001, 2002)
    death = {(y, r, s, a): 0.15 for y in yrs for r in ("AT-1", "AT-2")
             for s in ("m", "f") for a in range(101)}
    emig = {(y, r, s, a): 0.05 for y in yrs for r in ("AT-1", "AT-2")
            for s in ("m", "f") for a in range(101)}
    birth = {(y, r, "f", a): 0.25 for y in yrs for r in ("AT-1", "AT-2")
             for a in range(20, 40)}
    ie = {(y, r, s, a): 0.2 for y in yrs for r in ("AT-1", "AT-2")
          for s in ("m", "f") for a in range(101)}
    ii = {(y, r, s, a): 3.0 for y in yrs for r in ("AT-1", "AT-2")
          for s in ("m", "f") for a in range(101)}
    imm = {(y, r, s, a): 4 for y in yrs for r in ("AT-1", "AT-2")
           for s in ("m", "f") for a in (0, 30, 70)}
    p = make_params(pop, 2000, 2002, birth=birth, death=death, emig=emig,
                    imm=imm, ie=ie, ii=tab(2000, 2002, ii, name="II"))
    outs = run(ScenarioConfig(t0=2000, te=2003, runs=2, im_mode="biregional",
                              seed=3), p)
    for out in outs:
        for key, r in balance_residuals(out).items():
            assert r == 0, f"nonzero residual {r} at {key}"
        assert sum_by(out.internal_out, lambda k: k[0]) == \
            sum_by(out.internal_in, lambda k: k[0])
        assert out.od.total() == out.internal_out.total()


def test_interregional_destination_follows_od_row():
    pop = pop_tab(2000, {(2000, "AT-1", "m", 30): 40})
    ie = {(2000, "AT-1", "m", 30): 1.0}
    od = od_tab(2000, 2000, {
        (2000, "AT-1", "m", "AT-2"): 3.0,
        (2000, "AT-1", "m", "AT-1"): 99.0,  # self flow must be ignored
    })
    p = make_params(pop, 2000, 2000, ie=ie, od=od)
    out = run(ScenarioConfig(t0=2000, te=2001, im_mode="interregional"), p)[0]
    assert out.census[(2001, "AT-2", "m", 31)] == 40
    assert dict(out.internal_out.items()) == {(2000, "AT-1", "m", 30): 40}
    assert dict(out.internal_in.items()) == {(2000, "AT-2", "m", 30): 40}
    assert dict(out.od.items()) == {(2000, "AT-1", "m", "AT-2"): 40}


def test_biregional_profile_excludes_origin():
    pop = pop_tab(2000, {(2000, "AT-1", "f", 30): 20,
                         (2000, "AT-3", "f", 30): 1})
    ie = {(2000, "AT-1", "f", 30): 1.0}
    ii = tab(2000, 2000, {
        (2000, "AT-1", "f", 30): 50.0,
        (2000, "AT-3", "f", 30): 2.0,
    }, name="II")
    p = make_params(pop, 2000, 2000, ie=ie, ii=ii)
    out = run(ScenarioConfig(t0=2000, te=2001, im_mode="biregional"), p)[0]
    assert dict(out.internal_in.items()) == {(2000, "AT-3", "f", 30): 20}


def test_full_mode_uses_age_specific_flows():
    pop = pop_tab(2000, {(2000, "AT-1", "m", 10): 15,
                         (2000, "AT-1", "m", 40): 12})
    ie = {(2000, "AT-1", "m", 10): 1.0, (2000, "AT-1", "m", 40): 1.0}
    m_by_age = {
        0: od_tab(2000, 2000, {(2000, "AT-1", "m", "AT-2"): 1.0}),
        30: od_tab(2000, 2000, {(2000, "AT-1", "m", "AT-3"): 1.0}),
    }
    p = make_params(pop, 2000, 2000, ie=ie, m_by_age=m_by_age)
    out = run(ScenarioConfig(t0=2000, te=2001, im_mode="full"), p)[0]
    assert dict(out.internal_in.items()) == {
        (2000, "AT-2", "m", 10): 15,
        (2000, "AT-3", "m", 40): 12,
    }


def test_missing_destination_weights_name_the_cell():
    pop = pop_tab(2000, {(2000, "AT-1", "m", 30): 10})
    ie = {(2000, "AT-1", "m", 30): 1.0}
    od = od_tab(2000, 2000, {(2000, "AT-2", "m", "AT-1"): 1.0})
    p = make_params(pop, 2000, 2000, ie=ie, od=od)
    with pytest.raises(DataError, match=r"AT-1.*m.*30"):
        run(ScenarioConfig(t0=2000, te=2001, im_mode="interregional"), p)


def test_coverage_gaps_are_reported_before_stepping():
    pop = pop_tab(2000, {(2000, "AT-1", "m", 30): 10})
    short = make_params(pop, 2000, 2000)
    with pytest.raises(DataError, match="cover"):
        run(ScenarioConfig(t0=2000, te=2003), short)

    bad = make_params(pop, 2000, 2000, death={(2000, "AT-1", "m", 30): 1.5})
    with pytest.raises(DataError, match="probability"):
        run(ScenarioConfig(t0=2000, te=2001), bad)

    no_ie = make_params(pop, 2000, 2000,
                        od=od_tab(2000, 2000, {(2000, "AT-1", "m", "AT-2"): 1.0}))
    with pytest.raises(DataError, match="internal-emigration"):
        run(ScenarioConfig(t0=2000, te=2001, im_mode="interregional"), no_ie)


def test_config_validation():
    with pytest.raises(DataError):
        ScenarioConfig(t0=2005, te=2005)
    with pytest.raises(DataError):
        ScenarioConfig(t0=2000, te=2001, scale=0.0)
    with pytest.raises(DataError):
        ScenarioConfig(t0=2000, te=2001, im_mode="teleport")


def test_death_counts_match_binomial_expectation():
    pop = pop_tab(2000, {(2000, "AT-1", "m", 50): 20000})
    p = make_params(pop, 2000, 2000, death={(2000, "AT-1", "m", 50): 0.1})
    outs = run(ScenarioConfig(t0=2000, te=2001, runs=3, seed=7), p)
    sigma = (20000 * 0.1 * 0.9) ** 0.5
    for out in outs:
        assert abs(out.deaths.total() - 2000) < 5 * sigma
    mean = sum(out.deaths.total() for out in outs) / 3
    assert abs(mean - 2000) < 3 * sigma
