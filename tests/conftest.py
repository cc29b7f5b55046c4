from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"


@pytest.fixture(scope="session", autouse=True)
def no_seed_from_the_environment():
    """The CLI fills in a missing seed from PLSTM_SEED, so a value the
    caller exported would change what the tests train. It is unset for the
    whole session, so session fixtures such as criterion 5's run see it
    unset too, and restored at the end."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("PLSTM_SEED", raising=False)
        yield


@pytest.fixture(scope="session")
def data_dir():
    return DATA
