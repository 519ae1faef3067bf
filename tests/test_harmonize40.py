"""The harmonization stages at 40 municipalities pin their outputs.

The test pipeline holds 10 municipalities in 2 districts.  This one runs
synth through fuse over 40 municipalities in 8 districts (the benchmark's
harmonize-40 shape: districts 101-401, municipalities 01-05, seed 42, about
225k persons in the first census), so one table's code table holds 40 codes
that degrade onto 8 parents, and P_hat, the residual immigrants and the
fused flow tables must come out byte for byte as pinned.  Both fuse blocks
(2002, one per sex) must converge to the fuse stage's tolerance.
"""

import hashlib

import pytest

from censim.cli import _fuse_blocks, run_pipeline
from censim.configfile import Config
from censim.table import read_csv

R40 = tuple(f"{d}{m:02d}" for d in (101, 102, 103, 201, 202, 301, 302, 401)
            for m in range(1, 6))
STAGES = ("synth", "degrade", "disagg", "farr", "residual", "fuse")

PINNED = {
    "est/P_hat.csv": "41bb5cad9626df4ac7497ece38dae578df72b01aef1bbc346a525da13d5ce9be",
    "est/immigrants.csv": "d0facca3c50755b0f8e05d89aa36e50e8d416967408c09dd3dc581cd0bba4e3c",
    "est/m_age_0.csv": "6249d6bde527c3f64b4a70453aebb5ba4a5422f2fcb8f59794b226b7c2a05f4e",
    "est/m_age_20.csv": "209fbffa54f3eaaf58da411a5e7cd3ddbfaf56f9cf1ae76ea0ecb932ebe8d580",
    "est/m_age_40.csv": "76fb7343256f62f8bb08b9be9add5eb7e2413190dafaf8d70fdba8930b94c147",
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


def test_both_fuse_blocks_converge(workdir):
    ab, bc, ac = (read_csv(str(workdir / "coarse" / f"{name}.csv"))
                  for name in ("IE_cls", "II_cls", "M"))
    _, stats = _fuse_blocks(ab, bc, ac, tol=1e-4, zero_diagonal=True, years=(2002, 2002))
    assert stats["blocks"] == 2
    assert stats["converged"] and stats["residual"] < 1e-4
    assert stats["unconverged"] == 0
