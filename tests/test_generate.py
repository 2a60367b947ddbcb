import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridtopo
from _oracles import random_connected_grid
from gridtopo.errors import ValidationError
from gridtopo.generate import generate_grid
from gridtopo.grid import structure_report


def test_path():
    grid = generate_grid("path", 10, seed=0)
    assert len(grid.lines) == 9
    report = structure_report(grid)
    assert math.isinf(report.min_cycle_length)
    assert len(report.leaves) == 2


def test_tree_radial():
    grid = generate_grid("tree", 10, seed=0)
    assert math.isinf(structure_report(grid).min_cycle_length)
    assert len(grid.lines) == 9


@pytest.mark.parametrize("min_cycle,loops", [(3, 3), (4, 2), (7, 3)])
def test_meshed_exact_girth(min_cycle, loops):
    grid = generate_grid("meshed", 33, loops=loops, min_cycle=min_cycle, seed=1)
    assert structure_report(grid).min_cycle_length == min_cycle
    assert len(grid.lines) == 32 + loops


def test_reference_degree_one():
    grid = generate_grid("meshed", 30, loops=2, min_cycle=5, seed=4)
    assert grid.degree(grid.reference) == 1


def test_min_non_leaves():
    grid = generate_grid("tree", 20, seed=2, min_non_leaves=5)
    non_ref = set(grid.non_reference)
    interior = sum(
        1 for b in grid.non_reference if len(set(grid.adjacency[b]) & non_ref) > 1
    )
    assert interior >= 5


def test_infeasible_parameters():
    with pytest.raises(ValidationError):
        generate_grid("meshed", 5, loops=1, min_cycle=9, seed=0)
    with pytest.raises(ValidationError):
        generate_grid("meshed", 10, loops=1, min_cycle=None, seed=0)
    with pytest.raises(ValidationError, match="unknown grid kind"):
        generate_grid("ring", 10, seed=0)


@pytest.mark.parametrize(
    "bounds", [(0.3, 0.1), (float("nan"), 0.2), (0.0, 0.2), (0.1, float("inf"))]
)
@pytest.mark.parametrize("name", ["r_range", "x_range"])
def test_bad_impedance_range(name, bounds):
    with pytest.raises(ValidationError, match=f"{name} must satisfy 0 < low <= high"):
        generate_grid("tree", 6, **{name: bounds})
    with pytest.raises(ValidationError, match=f"{name} must satisfy 0 < low <= high"):
        random_connected_grid(6, **{name: bounds})


def test_determinism():
    a = generate_grid("meshed", 25, loops=2, min_cycle=6, seed=9)
    b = generate_grid("meshed", 25, loops=2, min_cycle=6, seed=9)
    assert a == b


def test_generation_independent_of_hash_seed():
    # Adjacency sets iterate in string-hash order, which differs between
    # interpreter runs; the chord draw must not depend on it.
    code = (
        "from gridtopo.generate import generate_grid; "
        "print(generate_grid('meshed', 25, loops=2, min_cycle=6, seed=9).sha256)"
    )
    src = str(Path(gridtopo.__file__).resolve().parents[1])
    digests = set()
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_random_connected_grid_edges():
    grid = random_connected_grid(15, extra_edges=4, seed=3)
    assert len(grid.lines) >= 14
    assert grid.n == 14
