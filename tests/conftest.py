from contextlib import contextmanager

import hypothesis.strategies as st
import pytest

from inccat import memo
from inccat.posets import Poset, from_covers


@st.composite
def posets(draw, min_size=0, max_size=6, num_colors=1):
    """Random poset: random DAG on index order, then transitive closure."""
    n = draw(st.integers(min_size, max_size))
    rel = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rel[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if (rel[i] >> k) & 1:
                rel[i] |= rel[k]
    colors = tuple(draw(st.integers(0, num_colors - 1)) for _ in range(n))
    return Poset(tuple(rel), None, colors)


@st.composite
def permutations_of(draw, n):
    perm = draw(st.permutations(list(range(n))))
    return list(perm)


@pytest.fixture(scope="session")
def chain2():
    return from_covers(["a", "b"], [("a", "b")])


@pytest.fixture(scope="session")
def chain3():
    return from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])


@pytest.fixture(scope="session")
def antichain2():
    return from_covers(["x", "y"], [])


@pytest.fixture(scope="session")
def vee():
    """a below both b and c."""
    return from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])


@pytest.fixture(scope="session")
def diamond():
    return from_covers(
        ["0", "1", "2", "3"], [("0", "1"), ("0", "2"), ("1", "3"), ("2", "3")]
    )


@pytest.fixture(scope="session")
def dot():
    return from_covers(["p"], [])


@contextmanager
def cleared_memo():
    """Every process memo table empty inside the block; the warm entries come back after."""
    saved = {name: dict(memo.process_table(name)) for name in memo.PROCESS_TABLES}
    memo.clear()
    try:
        yield
    finally:
        memo.clear()
        for name, entries in saved.items():
            memo.process_table(name).update(entries)


@pytest.fixture()
def cold_memo():
    """Every process memo table empty for the test; the warm entries come back after."""
    with cleared_memo():
        yield
