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


def child_pids():
    """The pids of this process's children, running or not yet reaped, as
    /proc lists them for each of its threads."""
    return sorted(int(pid) for path in Path("/proc/self/task").glob("*/children")
                  for pid in path.read_text().split())


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Fails a test that leaves a child process of the test process behind,
    such as a direction worker that was never reaped."""
    before = set(child_pids())
    yield
    left = sorted(set(child_pids()) - before)
    assert left == [], f"child processes left behind: {left}"


@pytest.fixture
def children():
    """`child_pids`, for a test that checks its own processes; skips where
    /proc does not list children."""
    if not any(Path("/proc/self/task").glob("*/children")):
        pytest.skip("/proc lists no child processes here")
    return child_pids


@pytest.fixture(scope="session")
def data_dir():
    return DATA
