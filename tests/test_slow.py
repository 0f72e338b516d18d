"""The slow tier: checks that take seconds to minutes each.

Deselected by default (`addopts` in pyproject.toml); run them with
`pytest -m slow`.
"""

import json

import numpy as np
import pytest

from whittaker.chartab import conjugacy_classes
from whittaker.cli import main
from whittaker.groups import GroupSpec, enumerate_group
from whittaker.localring import ring_make
from oracles import conjugacy_classes_sweep

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("family, ring", [
    ("GL", ring_make("mixed", 2, 1, 4)),  # GL2(Z/16): 24,576 elements, 248 classes
    ("SL", ring_make("mixed", 2, 1, 5)),  # SL2(Z/32): 24,576 elements, 168 classes
])
def test_orbit_classes_match_the_sweep_at_the_frontier(family, ring):
    table = enumerate_group(GroupSpec(family, 2, ring))
    cd, want = conjugacy_classes(table), conjugacy_classes_sweep(table)
    for field in ("class_of", "reps", "sizes", "orders", "inverse_perm"):
        assert np.array_equal(getattr(cd, field), getattr(want, field)), field


@pytest.mark.parametrize("group, ring, norm", [
    ("GL4", "mixed:2^2", 128),  # 161,280 cosets, a few seconds: the first n = 4 verdict
    ("GL3", "mixed:2^4", 2048),  # 688,128 cosets, a few seconds and about 600 MB
])
def test_induced_norm_beyond_the_benchmark(group, ring, norm, capsys):
    code = main(["verify", "--group", group, "--ring", ring, "--a", "1", "--no-cache",
                 "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["pass"] is True
    got = {c["claim"]: c["computed"] for c in report["checks"]}
    assert got["induced-norm-positive-and-bounded"] == norm
