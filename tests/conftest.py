"""Deterministic hypothesis settings for the whole suite, and a fixture
that counts left-right planarity runs.

Examples are derived from the test source (derandomize), so every run of
the suite tries the same inputs.  No example database is written, and the
constants cache that hypothesis keeps on disk goes to a temporary
directory removed after the session instead of ``.hypothesis/`` in the
working directory.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import pcl.embedding

settings.register_profile("pcl", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("pcl")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="pcl-hypothesis-")
    config.stash[_HOME] = home
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HOME].cleanup()


@pytest.fixture
def lr_runs(monkeypatch) -> list[int]:
    """Vertex counts of the graphs passed to the left-right kernel, which
    ``pcl.embedding`` calls by its module globals: n for ``lr_planarity``,
    and the vertices with a neighbour for the verdict entry ``is_planar``."""
    runs = []
    kernel, verdict = pcl.embedding.lr_planarity, pcl.embedding.is_planar

    def counting(n, *args, **kwargs):
        runs.append(n)
        return kernel(n, *args, **kwargs)

    def counting_verdict(adj):
        runs.append(sum(map(bool, adj)))
        return verdict(adj)
    monkeypatch.setattr(pcl.embedding, "lr_planarity", counting)
    monkeypatch.setattr(pcl.embedding, "is_planar", counting_verdict)
    return runs
