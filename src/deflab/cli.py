"""Command-line interface.

Inputs are presentation files in the angle-bracket grammar; `corpus:NAME`
anywhere a file is expected loads a built-in presentation.  All commands
emit deterministic JSON on stdout (or --out).  Exit codes: 0 when every
report row is certified-holds or consistent, 2 when an inconclusive row is
present, 1 for usage and operational errors, 3 when a self-check fails (a bug).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from itertools import islice

from . import __version__
from .chain import presentation_chain_complex
from .corpus import CORPUS, corpus_presentation
from .errors import DeflabError, InternalCheckFailed, NonPrimeModulus
from .groupring import GroupRingElement
from .intervals import deficiency_interval
from .linalg import betti_numbers, is_prime
from .lowindex import low_index_subgroups, normal_subgroups
from .modcert import KernelWitness, rank_drop_certificate
from .modp import dual_complex_dims
from .presentation import parse_presentation, parse_word, serialize_presentation
from .quotient import FiniteGroup, core_quotient
from .schreier import rewrite_subgroup_presentation
from .stability import STATUS_INCONCLUSIVE, stability_report


def _dump(obj, out=None):
    """Write obj as indented JSON and a newline, a few thousand encoder
    pieces at a time, so a large report's text is never held whole."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        while batch := list(islice(chunks, 4096)):
            fh.write("".join(batch))
        fh.write("\n")


def _load_presentation(spec):
    if spec.startswith("corpus:"):
        name = spec.split(":", 1)[1]
        if name not in CORPUS:
            raise DeflabError(f"unknown corpus entry {name!r}")
        return corpus_presentation(name), name
    with open(spec) as fh:
        return parse_presentation(fh.read()), spec


def _parse_index_spec(spec):
    out = set()
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        try:
            lo, hi = int(lo), int(hi or lo)
        except ValueError:
            raise DeflabError(f"index spec {spec!r} is not a list of K or K-L") from None
        if hi < lo:
            raise DeflabError(f"index spec {spec!r} names no index in {part!r}")
        out.update(range(lo, hi + 1))
    if min(out) < 1:
        raise DeflabError(f"index spec {spec!r} names an index below 1")
    return out


def _resolve_quotient(p, spec):
    """'trivial' or 'core:K:J' (the J-th subgroup of index K, 1-based)."""
    if spec == "trivial":
        return FiniteGroup.trivial(p.num_generators)
    if spec.startswith("core:"):
        try:
            _, k, j = spec.split(":")
            k, j = int(k), int(j)
        except ValueError:
            raise DeflabError(f"quotient spec {spec!r} is not core:K:J") from None
        if k < 1:
            raise DeflabError(f"quotient spec {spec!r} names an index below 1")
        records = [r for r in low_index_subgroups(p, k) if r.index == k]
        if not 1 <= j <= len(records):
            raise DeflabError(
                f"index-{k} subgroup ordinal {j} out of range (1..{len(records)})"
            )
        _, group = core_quotient(records[j - 1])
        return group
    raise DeflabError(f"bad quotient spec {spec!r}")


def cmd_parse(args):
    p, _ = _load_presentation(args.presentation)
    _dump(
        {
            "generators": list(p.generators),
            "relators": [p.word_to_text(r) for r in p.relators],
            "canonical": serialize_presentation(p),
        },
        args.out,
    )
    return 0


def cmd_subgroups(args):
    p, _ = _load_presentation(args.presentation)
    records = low_index_subgroups(p, args.max_index)
    _dump([r.to_json() for r in records], args.out)
    return 0


def cmd_schreier(args):
    p, _ = _load_presentation(args.presentation)
    wanted = _parse_index_spec(args.index_spec)
    out = []
    for rec in low_index_subgroups(p, max(wanted)):
        if rec.index not in wanted:
            continue
        sub = rewrite_subgroup_presentation(p, rec)
        out.append(
            {
                "index": rec.index,
                "presentation": serialize_presentation(sub.presentation),
                "generator_map": [
                    p.word_to_text(w) for w in sub.generator_map
                ],
            }
        )
    _dump(out, args.out)
    return 0


def cmd_homology(args):
    p, _ = _load_presentation(args.presentation)
    field = args.field
    if field != "Q":
        try:
            field = int(field)
        except ValueError:
            raise DeflabError(f"--field {args.field!r} is neither Q nor a prime") from None
        if not is_prime(field):
            raise NonPrimeModulus(f"--field {field} is not prime")
    quotient = _resolve_quotient(p, args.quotient)
    complex_ = presentation_chain_complex(p, quotient)
    betti = betti_numbers(complex_, field)
    _dump(
        {
            "quotient_order": quotient.order,
            "ranks": list(complex_.ranks),
            "field": betti.field,
            "betti": betti.b,
            "torsion": betti.torsion,
        },
        args.out,
    )
    return 0


def cmd_deficiency(args):
    p, _ = _load_presentation(args.presentation)
    interval = deficiency_interval(p, aspherical=args.aspherical)
    _dump(interval.to_json(), args.out)
    return 0


# the --csv columns, read from each JSON row with its interval flattened
_CSV_COLUMNS = (
    "group", "index", "ordinal", "class_size", "schreier_generators", "schreier_relators",
    "b1", "torsion", "lower", "upper", "certificate", "identity_status",
)


def cmd_stability(args):
    p, name = _load_presentation(args.presentation)
    report = stability_report(
        p, args.max_index, aspherical=args.aspherical, group_name=name
    )
    data = report.to_json()
    _dump(data, args.out)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for row in data["rows"]:
                values = {**row, **row["interval"], "group": data["group"]}
                values["torsion"] = ";".join(map(str, row["torsion"]))
                writer.writerow([values[c] for c in _CSV_COLUMNS])
    return 2 if report.verdict == STATUS_INCONCLUSIVE else 0


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true is not a number


def cmd_cert(args):
    p, _ = _load_presentation(args.presentation)
    with open(args.witness) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("rho"), list):
        raise DeflabError("the witness file must be a JSON object with a list 'rho'")
    spec = data.get("quotient", args.quotient)
    max_index = data.get("max_index", args.max_index)
    if not isinstance(spec, str):
        raise DeflabError(f"witness 'quotient' must be a string, not {spec!r}")
    if not _is_int(max_index):
        raise DeflabError(f"witness 'max_index' must be an integer, not {max_index!r}")
    if max_index < 1:
        raise DeflabError(f"witness 'max_index' must be an index >= 1, not {max_index}")
    rho = []
    for coordinate in data["rho"]:
        if not isinstance(coordinate, list):
            raise DeflabError(f"witness coordinate {coordinate!r} is not a list of terms")
        terms = {}
        for term in coordinate:
            if not (isinstance(term, list) and len(term) == 2
                    and isinstance(term[0], str) and _is_int(term[1])):
                raise DeflabError(f"witness term {term!r} is not a [word, integer] pair")
            w = parse_word(term[0], p)
            terms[w] = terms.get(w, 0) + term[1]
        rho.append(GroupRingElement.from_dict(terms))
    witness = KernelWitness(rho=tuple(rho))
    report = rank_drop_certificate(
        p, witness, _resolve_quotient(p, spec), max_index=max_index
    )
    _dump(report.to_json(), args.out)
    return 0


def cmd_modp(args):
    p, _ = _load_presentation(args.presentation)
    if not is_prime(args.p):
        raise NonPrimeModulus(f"-p {args.p} is not prime")
    records = [r for r in normal_subgroups(p, args.normal_index) if r.index == args.normal_index]
    out = [dual_complex_dims(p, r, args.p).to_json() for r in records]
    _dump(out, args.out)
    return 0


def _index(text):
    """The value of an index option: an integer >= 1."""
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an index >= 1")
    return k


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's 2: exit 2 is an inconclusive row
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="deflab",
        description="exact deficiency/homology experiments on finite presentations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("presentation", help="presentation file or corpus:NAME")
        sp.add_argument("--out", help="write JSON here instead of stdout")
        sp.set_defaults(fn=fn)
        return sp

    add("parse", cmd_parse, help="parse and echo a presentation")

    sp = add("subgroups", cmd_subgroups, help="enumerate low-index subgroups")
    sp.add_argument("--max-index", type=_index, required=True)

    sp = add("schreier", cmd_schreier, help="rewrite subgroup presentations")
    sp.add_argument(
        "--index-spec", required=True, help="indices to rewrite, e.g. 2 or 1-3 or 2,4"
    )

    sp = add("homology", cmd_homology, help="Betti numbers over a finite quotient")
    sp.add_argument(
        "--quotient", default="trivial", help="'trivial' or core:INDEX:ORDINAL"
    )
    sp.add_argument("--field", default="Q", help="'Q' or a prime")

    sp = add("deficiency", cmd_deficiency, help="certified deficiency interval")
    sp.add_argument("--aspherical", action="store_true")

    sp = add("stability", cmd_stability, help="stabilization report over covers")
    sp.add_argument("--max-index", type=_index, required=True)
    sp.add_argument("--aspherical", action="store_true")
    sp.add_argument("--csv", help="also write a CSV row dump here")

    sp = add("cert", cmd_cert, help="generator-drop certificate from a witness file")
    sp.add_argument("--witness", required=True, help="witness JSON file")
    sp.add_argument("--quotient", default="trivial")
    sp.add_argument("--max-index", type=_index, default=6)

    sp = add("modp", cmd_modp, help="dual-complex mod-p report for normal subgroups")
    sp.add_argument("-p", type=int, required=True, help="prime")
    sp.add_argument("--normal-index", type=_index, required=True)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InternalCheckFailed as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    except (DeflabError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
