"""Workload definitions: seeded inputs, the calls into deflab, and the
relabelling-invariant answers each job is checked against.

Presentations are written here as letter strings, a lower-case letter for a
generator and its upper-case form for the inverse, so the benchmark builds
its inputs without going through the parser it measures.  A seed picks, per
job, a generator permutation, generator inversions and a relator order; the
same relabelling is applied to quotient permutations and witness words.  The
program only ever sees the generated text.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import Counter
from dataclasses import dataclass

GENUS2 = ("abcd", ["abABcdCD"])
F2XF2 = ("abcd", ["acAC", "adAD", "bcBC", "bdBD"])
REDUNDANT = ("abc", ["abAB", "acAC", "abAB"])
TREFOIL = ("ab", ["aaBBB"])
DUP_RELATOR = ("ab", ["bbb", "bbb"])
# dihedral of order 32: three normal subgroups of index 2, so three
# bar-oracle cross-checks on groups of order 16
D16 = ("ab", ["a" * 16, "bb", "abab"])


def _cycles(n, *cycles):
    perm = list(range(n))
    for c in cycles:
        for i, x in enumerate(c):
            perm[x] = c[(i + 1) % len(c)]
    return tuple(perm)


# PSL(2,7) on the projective line over F_7 (points 0..6, infinity = 7):
# x -> -1/x has order 2 and x -> -1/(x+1) order 3, so a^2 b^-3 maps to 1.
PSL27_S = (7, 6, 3, 2, 5, 4, 1, 0)
PSL27_ST = (6, 3, 2, 5, 4, 1, 7, 0)
# a, b, c, d -> s, t, t, s kills [a, b][c, d] for any s, t; these generate A6.
A6_S = _cycles(6, (0, 1, 2))
A6_T = _cycles(6, (1, 2, 3, 4, 5))

# Witnesses (x, -x) for dup_relator: both relators are b^3, so any x gives a
# kernel element.  Each support needs a separating normal subgroup of index
# 5 or 6, found after one or more low-index searches.
DUP_WITNESSES = {
    "cert_a4": ["", "a", "aa", "aaa", "aaaa"],
    "cert_a5": ["", "a", "aa", "aaa", "aaaa", "aaaaa"],
    "cert_ab": ["", "a", "b", "ab", "ba"],
    "cert_comm": ["", "abAB"],
}


@dataclass(frozen=True)
class Relabel:
    """New generator j is old generator order[j] raised to signs[j]."""

    names: str
    order: tuple
    signs: tuple

    @staticmethod
    def draw(names, rng):
        order = list(range(len(names)))
        rng.shuffle(order)
        signs = tuple(rng.choice((1, -1)) for _ in names)
        return Relabel(names, tuple(order), signs)

    def letters(self, word):
        """Old letter string -> list of (new generator, exponent sign)."""
        where = {g: j for j, g in enumerate(self.order)}
        out = []
        for ch in word:
            j = where[self.names.index(ch.lower())]
            out.append((j, (1 if ch.islower() else -1) * self.signs[j]))
        return out

    def text(self, word):
        """Old letter string -> word text in the new labelling."""
        runs = []
        for j, s in self.letters(word):
            if runs and runs[-1][0] == j and (runs[-1][1] > 0) == (s > 0):
                runs[-1][1] += s
            else:
                runs.append([j, s])
        parts = []
        for j, e in runs:
            name = self.names[self.order[j]]
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts) or "1"

    def presentation(self, relators, rng):
        rels = [self.text(r) for r in relators]
        rng.shuffle(rels)
        gens = ", ".join(self.names[g] for g in self.order)
        return f"< {gens} | {', '.join(rels)} >"

    def perms(self, images):
        """Generator permutations of the old labelling -> new labelling."""
        out = []
        for j, g in enumerate(self.order):
            perm = images[g]
            if self.signs[j] < 0:
                inv = [0] * len(perm)
                for x, y in enumerate(perm):
                    inv[y] = x
                perm = tuple(inv)
            out.append(perm)
        return out


def relabelled(seed, job, presentation):
    """(Relabel, presentation text) for one job under one seed."""
    rng = random.Random(f"{seed}/{job}")
    names, relators = presentation
    relabel = Relabel.draw(names, rng)
    return relabel, relabel.presentation(relators, rng)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli(argv):
    """Run the CLI in-process; return (exit code, stdout text)."""
    from deflab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@dataclass
class Job:
    """One call into deflab.  run() returns the output text; answer() reduces
    that text to the relabelling-invariant answer the golden file stores."""

    name: str
    run: object
    answer: object


def _row_count(row):
    return row.get("class_size", 1)


def _stability_answer(text):
    report = json.loads(text)
    counts = Counter()
    rows = Counter()
    for row in report["rows"]:
        n = _row_count(row)
        counts[str(row["index"])] += n
        iv = row["interval"]
        key = (row["index"], row["b1"], tuple(row["torsion"]),
               iv["lower"], iv["upper"], iv["certificate"], row["identity_status"])
        rows[key] += n
    return {
        "subgroups_per_index": dict(sorted(counts.items())),
        "rows": [list(k) + [n] for k, n in sorted(rows.items())],
        "verdict": report["verdict"],
        "enumeration_complete": report["enumeration_complete"],
    }


def _homology_answer(text):
    out = json.loads(text)
    e0, e1, e2 = out["ranks"]
    b = out["betti"]
    euler_ok = b[0] - b[1] + b[2] == out["order"] * (e0 - e1 + e2)
    return {
        "order": out["order"],
        "field": out["field"],
        "betti": b,
        "torsion": out["torsion"],
        "euler_identity": euler_ok,
    }


def _modp_answer(text):
    rows = Counter()
    for row in json.loads(text):
        rows[(tuple(row["dims"]), row["jbar_dim"])] += _row_count(row)
    return {"rows": [[list(d), j, n] for (d, j), n in sorted(rows.items())]}


def _cert_answer(text):
    out = json.loads(text)
    return {"separating_index": out["subgroup_index"], "drop_bound_u": out["drop_bound_u"]}


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _cli_job(name, argv, answer):
    def run():
        code, out = _cli(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return out

    return Job(name, run, answer)


def _stability_job(workdir, seed, name, presentation, max_index):
    _, text = relabelled(seed, name, presentation)
    path = _write(workdir, f"{name}.txt", text)
    return _cli_job(name, ["stability", path, "--max-index", str(max_index)], _stability_answer)


def _homology_job(seed, name, presentation, images, field):
    relabel, text = relabelled(seed, name, presentation)
    perms = relabel.perms(images)

    def run():
        from deflab import (FiniteGroup, betti_numbers, parse_presentation,
                            presentation_chain_complex)

        p = parse_presentation(text)
        q = FiniteGroup.from_permutations(perms)
        c = presentation_chain_complex(p, q)
        b = betti_numbers(c, field)
        return json.dumps({"order": q.order, "ranks": list(c.ranks), "field": b.field,
                           "betti": b.b, "torsion": b.torsion}, sort_keys=True)

    return Job(name, run, _homology_answer)


def _modp_job(workdir, seed, name, presentation):
    _, text = relabelled(seed, name, presentation)
    path = _write(workdir, f"{name}.txt", text)
    return _cli_job(name, ["modp", path, "-p", "2", "--normal-index", "2"], _modp_answer)


def _cert_job(workdir, seed, name, support):
    relabel, text = relabelled(seed, name, DUP_RELATOR)
    pres = _write(workdir, f"{name}.txt", text)
    words = [relabel.text(w) for w in support]
    witness = {"rho": [[[w, 1] for w in words], [[w, -1] for w in words]],
               "quotient": "trivial", "max_index": 6}
    wpath = _write(workdir, f"{name}.json", json.dumps(witness))
    return _cli_job(name, ["cert", pres, "--witness", wpath], _cert_answer)


def cover_sweep(workdir, seed):
    """Stability reports: lowindex, coset packaging, schreier, tietze, small
    SNFs and the JSON dump.  chain and rank_mod_p do no work."""
    return [
        _stability_job(workdir, seed, "genus2_4", GENUS2, 4),
        _stability_job(workdir, seed, "f2xf2_3", F2XF2, 3),
        _stability_job(workdir, seed, "redundant_4", REDUNDANT, 4),
    ]


def quotient_homology(workdir, seed):
    """Homology over finite quotients: a large dense SNF over Q and a mod-p
    rank at quotient order 360.  lowindex does no work."""
    return [
        _homology_job(seed, "trefoil_psl27_Q", TREFOIL, (PSL27_S, PSL27_ST), "Q"),
        _homology_job(seed, "genus2_a6_F3", GENUS2, (A6_S, A6_T, A6_T, A6_S), 3),
    ]


def modp_oracle(workdir, seed):
    """Bar-oracle cross-check (tall sparse mod-p ranks), Todd-Coxeter, and
    generator-drop certificates that rerun the low-index search."""
    jobs = [_modp_job(workdir, seed, "d16_modp2", D16)]
    jobs += [_cert_job(workdir, seed, name, sup) for name, sup in DUP_WITNESSES.items()]
    return jobs


WORKLOADS = {
    "cover_sweep": cover_sweep,
    "quotient_homology": quotient_homology,
    "modp_oracle": modp_oracle,
}
