import pytest

from rootseq.rootsys import build_root_system
from rootseq.words import ReducedWord, act, roots_of_word


def word_from_root_order(system, root_texts):
    """The unique reduced word whose induced total order lists exactly the
    given roots, in the given order."""
    roots = [system.parse_root(t) for t in root_texts]
    prefix: list[int] = []
    letters = []
    for r in roots:
        alpha = act(system, list(reversed(prefix)), r)  # prefix inverse
        i = alpha.coeffs.index(1) + 1
        assert alpha == system.simple_root(i)
        letters.append(i)
        prefix.append(i)
    word = ReducedWord(tuple(letters), system)
    assert list(roots_of_word(word)) == roots
    return word


@pytest.fixture(scope="session")
def a5():
    return build_root_system("A", 5)


@pytest.fixture(scope="session")
def d4():
    return build_root_system("D", 4)


@pytest.fixture(scope="session")
def e6():
    return build_root_system("E", 6)
