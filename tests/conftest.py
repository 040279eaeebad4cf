from __future__ import annotations

from pathlib import Path

import pytest

from ambipref import Instance, load_instance, validate_instance

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture(scope="session")
def disjoint_pair() -> Instance:
    """Two interval belief sets on two states with a gap between them."""
    return load_instance(INSTANCE_DIR / "disjoint_pair.json")


@pytest.fixture(scope="session")
def touching_intervals() -> Instance:
    """Two intervals sharing exactly the prior (2/5, 3/5)."""
    return load_instance(INSTANCE_DIR / "touching_intervals.json")


@pytest.fixture(scope="session")
def overlapping_intervals() -> Instance:
    """Intervals with a fat overlap, so no hyperplane can cut the first set."""
    return load_instance(INSTANCE_DIR / "overlapping_intervals.json")


@pytest.fixture(scope="session")
def tilted_instance():
    """Builds an instance on any number of states: a uniform prior and a tilted one."""

    def build(states: int) -> Instance:
        names = [f"s{i}" for i in range(1, states + 1)]
        tilted = ["1/2", *[f"1/{2 * (states - 1)}"] * (states - 1)]
        return validate_instance({
            "states": names,
            "prizes": ["lose", "win"],
            "utility": {"lose": "-1", "win": "1"},
            "acts": {},
            "belief_collection": [
                {"name": "uniform", "vertices": [[f"1/{states}"] * states]},
                {"name": "tilted", "vertices": [tilted]},
            ],
        })

    return build
