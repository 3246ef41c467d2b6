"""The subspace-mask dimensionality limit, tested at its boundary.

Merge and the subset index keep subspace masks in ``int64`` arrays, so
boosted execution holds up to ``bitset.MAX_MASK_DIMS`` (63) dimensions.
At the limit the boost runs and matches the oracle; one past it the
adaptive planner falls back to an unboosted host, and pinned or direct
``*-subset`` calls fail with a typed error before doing any work.
"""

import numpy as np
import pytest

import repro
from repro.algorithms.registry import get_algorithm
from repro.data import generate
from repro.engine import SkylineEngine
from repro.errors import InvalidParameterError
from repro.structures import bitset
from tests.conftest import brute_skyline_ids

LIMIT = bitset.MAX_MASK_DIMS


def correlated(d: int, n: int = 700, seed: int = 5) -> np.ndarray:
    """Correlated rows: a real share of dominated points even at high d."""
    return generate("CO", n=n, d=d, seed=seed).values


@pytest.mark.parametrize("name", ["sfs-subset", "sdi-subset", "salsa-subset"])
def test_boosted_at_the_limit_matches_oracle(name):
    values = correlated(LIMIT)
    expected = brute_skyline_ids(values)
    assert len(expected) < len(values)  # the scan has points to reject
    direct = get_algorithm(name).compute(values)
    assert sorted(direct.indices.tolist()) == expected
    pinned = SkylineEngine().execute(values, name)
    assert pinned.plan.boosted
    assert sorted(pinned.indices.tolist()) == expected


def test_adaptive_at_the_limit_stays_boosted():
    result = SkylineEngine().execute(generate("UI", n=700, d=LIMIT, seed=2))
    assert result.plan.boosted


def test_adaptive_past_the_limit_runs_unboosted_and_matches_oracle():
    values = correlated(LIMIT + 1)
    result = repro.skyline(values, algorithm=None)
    assert sorted(result.indices.tolist()) == brute_skyline_ids(values)
    ui = generate("UI", n=700, d=LIMIT + 1, seed=2)
    result = SkylineEngine().execute(ui)
    assert not result.plan.boosted
    assert f"d={LIMIT + 1} > {LIMIT}" in result.plan.explain()
    assert sorted(result.indices.tolist()) == brute_skyline_ids(ui.values)


@pytest.mark.parametrize("name", ["sfs-subset", "sdi-subset"])
def test_pinned_past_the_limit_raises_typed_error(name, monkeypatch):
    def no_merge(*args, **kwargs):
        raise AssertionError("Merge ran before the limit was checked")

    monkeypatch.setattr("repro.core.boost.merge", no_merge)
    values = correlated(LIMIT + 1)
    with pytest.raises(InvalidParameterError, match="d <= 63"):
        SkylineEngine().execute(values, name)
    with pytest.raises(InvalidParameterError, match="d <= 63"):
        get_algorithm(name).compute(values)
    with pytest.raises(InvalidParameterError, match="d <= 63"):
        repro.skyline(values, algorithm=name)


def test_delta_past_the_limit_recomputes_instead_of_repairing():
    dataset = generate("CO", n=700, d=LIMIT + 1, seed=5)
    original = dataset.values
    engine = SkylineEngine()
    engine.execute(dataset, workers=1)
    inserts = np.random.default_rng(1).random((3, LIMIT + 1))
    engine.apply_delta(dataset, inserts=inserts)
    with pytest.raises(InvalidParameterError, match="incremental=True"):
        engine.execute(dataset, workers=1, incremental=True)
    result = engine.execute(dataset, workers=1)
    assert not result.plan.incremental
    assert f"d={LIMIT + 1} > {LIMIT}" in result.plan.explain()
    expected = brute_skyline_ids(np.vstack([original, inserts]))
    assert sorted(result.indices.tolist()) == expected
