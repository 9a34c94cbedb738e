import itertools

import pytest

from cgcasimir import grading, make_cga, parse_spec, solve_casimirs


@pytest.fixture(scope="session")
def algebra():
    cache = {}

    def get(d, ell):
        key = (d, str(ell))
        if key not in cache:
            cache[key] = make_cga(parse_spec(d, ell))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def solved(algebra):
    """Memoized solver runs; most tests share a handful of targets."""
    cache = {}

    def get(d, ell, grade, degree, method="pipeline"):
        key = (d, str(ell), tuple(grade), degree, method)
        if key not in cache:
            cache[key] = solve_casimirs(algebra(d, ell), grade, degree, method=method)
        return cache[key]

    return get


class _UnjoinableWord(tuple):
    def __add__(self, other):
        raise AssertionError("a monomial was built")


@pytest.fixture
def refuse_joins(monkeypatch):
    """The ansatz half-words concatenate only by raising, so building any
    joined monomial fails the test."""
    monkeypatch.setattr(grading, "combinations_with_replacement", lambda letters, n: map(
        _UnjoinableWord, itertools.combinations_with_replacement(letters, n)))
