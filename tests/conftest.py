"""Fixtures and helpers shared by several test modules."""

import contextlib
import random

import pytest
from hypothesis import strategies as st

from deflab import lowindex
from deflab.corpus import CORPUS, corpus_presentation
from deflab.lowindex import low_index_subgroups
from deflab.presentation import Presentation
from deflab.quotient import core_record
from deflab.words import Word

# full-enumeration index caps keeping acceptance criterion 1 inside its
# minute budget
ENUM_CAPS = {
    "free1": 6, "free2": 6, "free3": 3, "torus": 6, "genus2": 3, "genus3": 2,
    "f2xf2": 2, "trefoil": 5, "dup_relator": 4, "redundant": 3,
    "c2": 6, "c3": 6, "c4": 6, "c5": 6, "c2xc2": 6, "q8": 6, "d4": 6,
}


@pytest.fixture(scope="session")
def enum_caps():
    """ENUM_CAPS: the full-enumeration index cap of every corpus entry."""
    return ENUM_CAPS


@pytest.fixture(scope="session")
def corpus_core_quotients():
    """(name, presentation, generator permutations, quotient) for every
    distinct core quotient of a corpus entry at index <= 3.

    The permutations are the coset action of one subgroup with that core;
    they generate the quotient.
    """
    found = []
    for name in CORPUS:
        p = corpus_presentation(name)
        seen = set()
        for rec in low_index_subgroups(p, 3):
            _, q = core_record(rec)
            if q.right not in seen:
                seen.add(q.right)
                found.append((name, p, [tuple(perm) for perm in rec.table.action], q))
    return found


@contextlib.contextmanager
def node_budget(nodes):
    """lowindex.MAX_NODES set to nodes inside the with-block; for hypothesis
    tests and helpers, which cannot take the monkeypatch fixture."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lowindex, "MAX_NODES", nodes)
        yield


def seeded_presentations(seed, count):
    """count presentations on one or two generators with one or two short
    relators, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ngens = rng.randrange(1, 3)
        rels = []
        for _ in range(rng.randrange(1, 3)):
            w = Word(tuple(
                (rng.randrange(ngens), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 6))
            ))
            if w:
                rels.append(w)
        out.append(Presentation(tuple("ab"[:ngens]), tuple(rels)))
    return out


@pytest.fixture(scope="session")
def random_presentations():
    """The seeded generator random_presentations(seed, count)."""
    return seeded_presentations


def from_dense(a):
    """The sparse {col: value} rows of a dense list of lists."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def to_dense(m, ncols):
    """The dense list of lists of a sparse matrix with ncols columns."""
    return [[row.get(j, 0) for j in range(ncols)] for row in m]


@st.composite
def small_presentations(draw):
    """Presentations on one or two generators with up to three relators of
    up to seven letters."""
    ngens = draw(st.integers(1, 2))
    letter = st.tuples(st.integers(0, ngens - 1), st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letter, min_size=1, max_size=7), max_size=3))
    return Presentation(tuple("ab"[:ngens]), tuple(Word(tuple(w)) for w in words))
