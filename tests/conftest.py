"""Fixtures shared by several test modules."""

import pytest

from deflab.corpus import CORPUS, corpus_presentation
from deflab.lowindex import low_index_subgroups
from deflab.quotient import core_record


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
