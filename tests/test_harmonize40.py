"""The harmonization stages at 40 municipalities pin their outputs.

The test pipeline holds 10 municipalities in 2 districts.  This one runs
synth through fuse over 40 municipalities in 8 districts (the benchmark's
harmonize-40 shape: districts 101-401, municipalities 01-05, seed 42, about
225k persons in the first census), so one table's code table holds 40 codes
that degrade onto 8 parents, and P_hat, the residual immigrants and the
fused flow tables must come out byte for byte as pinned.
"""

import hashlib

import pytest

from censim.cli import run_pipeline
from censim.configfile import Config

R40 = tuple(f"{d}{m:02d}" for d in (101, 102, 103, 201, 202, 301, 302, 401)
            for m in range(1, 6))
STAGES = ("synth", "degrade", "disagg", "farr", "residual", "fuse")

PINNED = {
    "est/P_hat.csv": "41bb5cad9626df4ac7497ece38dae578df72b01aef1bbc346a525da13d5ce9be",
    "est/immigrants.csv": "d0facca3c50755b0f8e05d89aa36e50e8d416967408c09dd3dc581cd0bba4e3c",
    "est/m_age_0.csv": "3e9e850a44929af0a9c2f38c58b2b7dc7454eaa78f953ab325f86e01d72bcaf0",
    "est/m_age_20.csv": "b6a65d9f64ba9ebeb991ebe3fb8c2fd164351a0ac4e1acce69f1ee276579864d",
    "est/m_age_40.csv": "00cbe652eed69c995fd98bfbe87ccc40cce81c8ec8456e5fb9e0aa4e596e9917",
    "est/m_age_60.csv": "165f241ec7ffd1cdb844a1bece303250ab370cfc94af4eeda7ce0650311744ae",
    "est/m_age_80.csv": "165f241ec7ffd1cdb844a1bece303250ab370cfc94af4eeda7ce0650311744ae",
    "est/m_age_100.csv": "165f241ec7ffd1cdb844a1bece303250ab370cfc94af4eeda7ce0650311744ae",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("harmonize40")
    run_pipeline(Config({
        "workdir": str(work), "stages": ",".join(STAGES),
        "regions": ",".join(R40), "level": "municipalities",
        "base": "101.29386024148457", "seed": "42", "y0": "1999",
        "t0": "2002", "te": "2003", "y1": "2003", "runs": "3",
        "im_mode": "full"}), str(work))
    return work


@pytest.mark.parametrize("rel", sorted(PINNED))
def test_outputs_match_pinned_digests(workdir, rel):
    digest = hashlib.sha256((workdir / rel).read_bytes()).hexdigest()
    assert digest == PINNED[rel]
