"""Census harmonization and stochastic cohort microsimulation toolkit."""

from .balance import residual_immigrants
from .disagg import disaggregate_table, huntington_hill, proportional_disaggregate
from .errors import DataError
from .fitting import (BirthFitTarget, MortalityFitTarget, fit_births,
                      fit_mortality)
from .ipf import ipf2, ipf3
from .lifetable import build_life_table, life_expectancy
from .rates import death_table_alpha, farr_probability_model
from .regions import RegionManifest
from .simulate import ScenarioConfig, SimParams, run
from .synthgen import SynthSpec, generate_truth
from .table import (CensusTable, ResolutionSpec, add_tables, aggregate,
                    cells, degrade, read_csv, write_csv)
from .validate import compare, error_band, mc_mean

__version__ = "0.1.0"

__all__ = [
    "BirthFitTarget", "CensusTable", "DataError", "MortalityFitTarget",
    "RegionManifest", "ResolutionSpec", "ScenarioConfig", "SimParams",
    "SynthSpec", "add_tables", "aggregate", "build_life_table", "cells",
    "compare",
    "death_table_alpha", "degrade", "disaggregate_table", "error_band",
    "farr_probability_model", "fit_births", "fit_mortality",
    "generate_truth", "huntington_hill", "ipf2", "ipf3", "life_expectancy",
    "mc_mean", "proportional_disaggregate", "read_csv",
    "residual_immigrants", "run", "write_csv", "__version__",
]
