"""The frozen reference copy in perfbench/reference/edschar as an output
oracle: on fixed and seeded inputs, the program returns exactly what the
reference returns.

The reference is the package as it was when the benchmark was added.  It uses
only relative imports, so it loads beside `edschar` under another name; it is
only read (no bytecode is written next to it)."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from edschar import harness
from edschar.field import primes_in

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "edschar"


@pytest.fixture(scope="module")
def ref():
    """The reference's harness module, loaded as edschar_reference."""
    name = "edschar_reference"
    spec = importlib.util.spec_from_file_location(
        name, REFERENCE / "__init__.py", submodule_search_locations=[str(REFERENCE)]
    )
    package = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[name] = package
    try:
        spec.loader.exec_module(package)
        yield importlib.import_module(f"{name}.harness")
    finally:
        sys.dont_write_bytecode = dont_write
        for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
            del sys.modules[module]


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_sweep_oracle_random_matches_reference(ref, seed):
    assert harness.sweep_oracle_random(4, seed, 2000) == ref.sweep_oracle_random(4, seed, 2000)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_recurrence_matches_reference(ref, seed):
    assert harness.sweep_recurrence(300, seed) == ref.sweep_recurrence(300, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_index_product_matches_reference(ref, seed):
    got = harness.sweep_index_product(300, seed, edge_trials=40)
    assert got == ref.sweep_index_product(300, seed, edge_trials=40)


def test_sweep_oracle_equivalence_matches_reference(ref):
    assert harness.sweep_oracle_equivalence(5, 19) == ref.sweep_oracle_equivalence(5, 19)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (999_939_937, 999_999_937),  # the random oracle sweep's primes
        (1_990_000, 2_010_000),  # across the old sieve bound
        (3_999_999_990_000, 4_000_000_000_000),  # base primes up to 2 * 10**6
        (4_000_004_000_001, 4_000_004_010_000),  # past them: Miller-Rabin
        (5, 50),
        (24, 28),
        (1_000_003, 1_000_003),
        (10, 5),
    ],
)
def test_primes_in_matches_reference(ref, lo, hi):
    assert primes_in(lo, hi) == ref.primes_in(lo, hi)
