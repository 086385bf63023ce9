import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def repo_root() -> pathlib.Path:
    return REPO


@pytest.fixture(scope="session")
def smib_case():
    from stochsim import load_case

    return load_case(REPO / "cases" / "smib.json")


@pytest.fixture(scope="session")
def ieee39_case():
    from stochsim import load_case

    return load_case(REPO / "cases" / "ieee39.json")

