"""Unit tests for RNG helpers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.engine import QueryEngine
from repro.graph.builders import from_edges
from repro.graph.generators import barabasi_albert_graph
from repro.utils.rng import (
    as_generator,
    derive_seed,
    derive_seeds,
    random_choice_csr,
    spawn_generators,
)

PLAN_PAIRS = [(0, 7), (3, 40), (11, 2), (25, 49)]


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = as_generator(5).integers(0, 1000, size=10)
        b = as_generator(5).integers(0, 1000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert as_generator(gen) is gen

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(as_generator(seq), np.random.Generator)

    def test_invalid_type(self):
        with pytest.raises(TypeError):
            as_generator("not a seed")


class TestSpawn:
    def test_spawn_count(self):
        children = spawn_generators(3, 4)
        assert len(children) == 4

    def test_spawn_independent_streams(self):
        a, b = spawn_generators(3, 2)
        assert not np.array_equal(a.integers(0, 100, 20), b.integers(0, 100, 20))

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(1, -1)

    def test_derive_seed_deterministic(self):
        assert derive_seed(4, 7, 1) == derive_seed(4, 7, 1)
        assert derive_seed(4, np.int64(7), 1) == derive_seed(4, 7, 1)
        # str hashes are salted per interpreter: not a reproducible label
        with pytest.raises(TypeError):
            derive_seed(4, "x", 1)
        with pytest.raises(TypeError):
            derive_seed(4, 1, 2.0)

    def test_derive_seeds_is_derive_seed_per_row(self):
        rows = [(0, 5, 9), (1, 5, 9), (2, 8, 3), ()]
        assert derive_seeds(11, rows) == [derive_seed(11, *row) for row in rows]

    def test_plan_task_seeds_do_not_depend_on_the_hash_seed(self):
        """A plan's task seeds are the same in processes with other string-hash salts."""
        code = (
            "import json\n"
            "from repro.core.engine import QueryEngine\n"
            "from repro.graph.generators import barabasi_albert_graph\n"
            "graph = barabasi_albert_graph(50, 3, rng=2)\n"
            "plan = QueryEngine(graph, rng=9).plan(PAIRS, 0.3, method='geer')\n"
            "print(json.dumps([task[4] for task in plan.parallel_tasks()]))\n"
        ).replace("PAIRS", repr(PLAN_PAIRS))
        plan = QueryEngine(barabasi_albert_graph(50, 3, rng=2), rng=9).plan(
            PLAN_PAIRS, 0.3, method="geer"
        )
        expected = [task[4] for task in plan.parallel_tasks()]
        src = str(Path(repro.__file__).resolve().parents[1])
        for hash_seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True, timeout=120,
            )
            assert json.loads(out.stdout) == expected



class TestRandomChoiceCSR:
    def test_samples_are_neighbors(self):
        graph = from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        gen = np.random.default_rng(0)
        nodes = np.zeros(500, dtype=np.int64)
        samples = random_choice_csr(gen, graph.indptr, graph.indices, nodes)
        assert set(np.unique(samples)) <= {1, 2, 3}

    def test_roughly_uniform(self):
        graph = from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        gen = np.random.default_rng(0)
        nodes = np.zeros(6000, dtype=np.int64)
        samples = random_choice_csr(gen, graph.indptr, graph.indices, nodes)
        counts = np.bincount(samples, minlength=4)[1:]
        assert counts.min() > 1700  # each neighbour ~2000 expected

    def test_isolated_node_rejected(self):
        graph = from_edges([(0, 1)], num_nodes=3)
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_choice_csr(gen, graph.indptr, graph.indices, np.array([2]))
