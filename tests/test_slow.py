"""The slow tier: checks that take seconds to minutes each.

Deselected by default (`addopts` in pyproject.toml); run them with
`pytest -m slow`.
"""

import hashlib
import json

import numpy as np
import pytest

from whittaker.chartab import (character_table, classify_regular, conjugacy_classes,
                               sl_class_profile)
from whittaker.cli import main
from whittaker.groups import GroupSpec, enumerate_group
from whittaker.localring import ring_make
from oracles import classify_regular_by_x, conjugacy_classes_sweep, sl_class_profile_by_lookup

pytestmark = pytest.mark.slow


@pytest.mark.parametrize("family, ring", [
    ("GL", ring_make("mixed", 2, 1, 4)),  # GL2(Z/16): 24,576 elements, 248 classes
    ("SL", ring_make("mixed", 2, 1, 5)),  # SL2(Z/32): 24,576 elements, 168 classes
])
def test_orbit_classes_match_the_sweep_at_the_frontier(family, ring):
    table = enumerate_group(GroupSpec(family, 2, ring))
    cd, want = conjugacy_classes(table), conjugacy_classes_sweep(table)
    for field in ("class_of", "reps", "sizes", "orders", "inverse_perm", "powers"):
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


@pytest.mark.parametrize("family, n, ring", [
    ("GL", 3, ring_make("mixed", 2, 1, 2)),  # GL3(Z/4): 512 x in 14 orbits
    ("GL", 2, ring_make("equal", 2, 2, 2)),  # GL2(F4[t]/t^2): 256 x in 20 orbits, k = 252
])
def test_classify_regular_on_orbits_matches_every_x_at_the_frontier(family, n, ring):
    ct = character_table(enumerate_group(GroupSpec(family, n, ring)))
    assert classify_regular(ct) == classify_regular_by_x(ct)


def test_sl_class_profile_matches_the_lookup_oracle_on_gl3():
    ring = ring_make("mixed", 2, 1, 2)  # GL3(Z/4): 60 classes
    ct = character_table(enumerate_group(GroupSpec("GL", 3, ring)))
    sl_table = enumerate_group(GroupSpec("SL", 3, ring))
    assert np.array_equal(sl_class_profile(ct), sl_class_profile_by_lookup(ct, sl_table))


# sha256 of rows, degrees and (e, r), hashed as test_chartab's pinned digests
# are, recorded before the split read only the rows of M_j it needs
@pytest.mark.parametrize("ring, digest", [
    # GL2(Z/16): k = 248, e = 48, r = 337
    (ring_make("mixed", 2, 1, 4), "6e0a0292ca3637dc30c372030cfb751af1ad8faa8a80e07da08044a0bfdfc128"),
    # GL2(F4[t]/t^2): k = 252, e = 60, r = 541
    (ring_make("equal", 2, 2, 2), "9696bbb2c91962b7fce6ac1a963328c48de06107f12fed4ce282ade706cddef0"),
])
def test_frontier_tables_match_pinned_digests(ring, digest):
    ct = character_table(enumerate_group(GroupSpec("GL", 2, ring)))
    got = hashlib.sha256(ct.rows.astype(np.int64).tobytes() + ct.degrees.tobytes()
                         + str((ct.e, ct.r)).encode())
    assert got.hexdigest() == digest
