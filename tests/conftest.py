import shutil
from pathlib import Path

import pytest

from trustpath import fixture_topology, serialize_topology


@pytest.fixture()
def demo_topology():
    return fixture_topology()


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.trust"
    path.write_text(serialize_topology(fixture_topology()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def dead_end_file(tmp_path):
    """A copy of the golden dead-end topology: S's one edge fails the trust test."""
    path = tmp_path / "dead_end.trust"
    shutil.copyfile(Path(__file__).parent / "golden" / "dead_end.trust", path)
    return str(path)
