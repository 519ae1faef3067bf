"""Spans and counters around censim's public functions.

A trace point wraps one function at every module attribute that binds it
(its import sites), so calls made from any censim module pass through the
same wrapper.  Spans nest: a span's self time is its duration minus the
time of the traced spans opened inside it.  Everything stays in memory;
the worker writes the totals out when its step ends.
"""

from __future__ import annotations

import importlib
import logging
import time


def _awards(st, args, kwargs, out):
    st["awards"] += sum(out)


def _rows_out(st, args, kwargs, out):
    st["rows"] += len(out)


def _rows_in(st, args, kwargs, out):
    st["rows"] += len(args[0])


def _cells(st, args, kwargs, out):
    st["cells"] += len(args[0])


def _floored(st, args, kwargs, out):
    diag = kwargs.get("diagnostics")
    st["floored"] += (diag or {}).get("floored", 0)


def _ipf(st, args, kwargs, out):
    st["iterations"] += out.iterations
    st["unconverged"] += not out.converged
    st["residual_max"] = max(st["residual_max"], out.residual)


def _person_years(st, args, kwargs, out):
    st["person_years"] += len(args[0].pid)


# (name, import sites as "module:attribute", extra counters, hook, timed)
TRACE_POINTS = (
    ("table.read_csv", ("censim.table:read_csv", "censim.cli:read_csv"),
     ("rows",), _rows_out, True),
    ("table.write_csv", ("censim.table:write_csv", "censim.cli:write_csv"),
     ("rows",), _rows_in, True),
    ("table.CensusTable_init", ("censim.table:CensusTable.__init__",),
     ("cells",), _cells, True),
    ("table.aggregate", ("censim.table:aggregate", "censim.cli:aggregate",
                         "censim.synthgen:aggregate"), (), None, True),
    ("regions.is_valid_code", ("censim.regions:is_valid_code",
                               "censim.table:is_valid_code"), (), None, True),
    ("synthgen.generate_truth", ("censim.synthgen:generate_truth",
                                 "censim.cli:generate_truth"), (), None, True),
    ("synthgen.degrade", ("censim.synthgen:degrade", "censim.cli:degrade"),
     (), None, True),
    ("disagg.huntington_hill", ("censim.disagg:huntington_hill",
                                "censim.simulate:huntington_hill",
                                "censim.synthgen:huntington_hill"),
     ("awards",), _awards, True),
    ("disagg.disaggregate_table", ("censim.disagg:disaggregate_table",
                                   "censim.cli:disaggregate_table"),
     (), None, True),
    ("rates.farr_probability_model", ("censim.rates:farr_probability_model",
                                      "censim.cli:farr_probability_model"),
     (), None, True),
    ("fitting.fit_births", ("censim.fitting:fit_births",
                            "censim.cli:fit_births"), (), None, True),
    ("lifetable.build_life_table", ("censim.lifetable:build_life_table",
                                    "censim.fitting:build_life_table",
                                    "censim.cli:build_life_table"),
     (), None, True),
    ("balance.residual_immigrants", ("censim.balance:residual_immigrants",
                                     "censim.cli:residual_immigrants"),
     ("floored",), _floored, True),
    ("ipf.ipf3", ("censim.ipf:ipf3", "censim.cli:ipf3"),
     ("iterations", "unconverged", "residual_max"), _ipf, True),
    ("simulate.run", ("censim.simulate:run", "censim.cli:run"), (), None, True),
    ("simulate.init_population", ("censim.simulate:init_population",),
     (), None, True),
    ("simulate.step_year", ("censim.simulate:step_year",),
     ("person_years",), _person_years, True),
    # one scalar draw per mover: count only, a timer would cost more than it
    ("rng.uniform", ("censim.simulate:uniform",), (), None, False),
    ("validate.compare", ("censim.validate:compare", "censim.cli:compare"),
     (), None, True),
    ("validate.mc_mean", ("censim.validate:mc_mean", "censim.cli:mc_mean"),
     (), None, True),
)


def _resolve(site: str):
    """(owner object, attribute name) for "module:Class.attr" or "module:attr"."""
    module, _, path = site.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class Tracer:
    """Installs the trace points and accumulates their totals."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.top_s = 0.0           # time inside outermost spans
        self.missing: list[str] = []
        self._open: list[float] = []   # child time under each open span
        self._undo: list[tuple] = []
        self._warnings = _WarningCounter()

    @property
    def warnings(self) -> int:
        return self._warnings.count

    def _wrap(self, fn, st: dict, hook, timed: bool):
        if not timed:
            def counted(*args, **kwargs):
                st["calls"] += 1
                return fn(*args, **kwargs)
            return counted

        open_spans = self._open
        clock = time.perf_counter
        active = [0]   # nesting depth of this function, for recursion

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            active[0] += 1
            t = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = clock() - t
                active[0] -= 1
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += d
                else:
                    self.top_s += d
                st["calls"] += 1
                st["self_s"] += d - child
                if not active[0]:
                    st["s"] += d
            if hook is not None:
                hook(st, args, kwargs, out)
            return out
        return traced

    def install(self) -> None:
        for name, sites, extras, hook, timed in TRACE_POINTS:
            st = {"calls": 0, "s": 0.0, "self_s": 0.0}
            st.update({k: 0 for k in extras})
            self.stats[name] = st
            bound = []
            for site in sites:
                try:
                    owner, attr = _resolve(site)
                    bound.append((owner, attr, getattr(owner, attr)))
                except (ImportError, AttributeError):
                    self.missing.append(site)
            if not bound:
                continue
            original = bound[0][2]
            wrapper = self._wrap(original, st, hook, timed)
            for owner, attr, fn in bound:
                if fn is not original:
                    self.missing.append(f"{owner.__name__}:{attr} (rebound)")
                    continue
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, fn))
        logging.getLogger("censim").addHandler(self._warnings)

    def uninstall(self) -> None:
        logging.getLogger("censim").removeHandler(self._warnings)
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()
