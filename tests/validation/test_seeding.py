"""Unit tests for the deterministic per-replication seeding scheme."""

import numpy as np
import pytest

from repro.validation.seeding import replication_seed, spawn_seeds


class TestReplicationSeed:
    def test_deterministic(self):
        a = np.random.default_rng(replication_seed(7, 3)).random(8)
        b = np.random.default_rng(replication_seed(7, 3)).random(8)
        assert np.array_equal(a, b)

    def test_matches_numpy_spawn_contract(self):
        # SeedSequence(e).spawn(n)[i] == SeedSequence(e, spawn_key=(i,)).
        spawned = np.random.SeedSequence(42).spawn(5)
        for index, child in enumerate(spawned):
            ours = replication_seed(42, index)
            assert ours.generate_state(4).tolist() == \
                child.generate_state(4).tolist()

    def test_distinct_across_indices_and_seeds(self):
        states = {
            tuple(replication_seed(seed, index).generate_state(4).tolist())
            for seed in (0, 1)
            for index in range(50)
        }
        assert len(states) == 100

    def test_subkeys_branch_independently(self):
        base = replication_seed(5, 2).generate_state(4)
        sub0 = replication_seed(5, 2, 0).generate_state(4)
        sub1 = replication_seed(5, 2, 1).generate_state(4)
        assert not np.array_equal(sub0, sub1)
        assert not np.array_equal(base, sub0)

    @pytest.mark.parametrize(
        "args", [(-1, 0), (0, -1), (0, 0, -2)], ids=["seed", "index", "subkey"]
    )
    def test_negative_inputs_rejected(self, args):
        with pytest.raises(ValueError):
            replication_seed(*args)


class TestSpawnHelpers:
    def test_spawn_seeds_are_the_replication_seeds(self):
        seeds = spawn_seeds(11, 4)
        assert len(seeds) == 4
        for index, seed in enumerate(seeds):
            assert seed.generate_state(2).tolist() == \
                replication_seed(11, index).generate_state(2).tolist()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)
