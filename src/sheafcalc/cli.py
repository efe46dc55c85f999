"""Command-line surface over the engine.

Every subcommand emits a deterministic document in one of three formats
(aligned table, CSV, JSON); JSON payloads carry a ``sources`` map naming the
internal rule that produced each numeric claim, so outputs can be golden-file
tested.  json.dumps(indent=2) writes every JSON document but cohomology's,
which one %-template per result writes, byte-identical to json.dumps.  Exit
codes: 0 success, 2 usage error, 3 engine error (the error's typed name is
printed on stderr).  Each handler imports the engine modules it uses, so a
process loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from pathlib import Path

from .chow import PRESETS, ThreefoldData, chi_series, load_threefold, threefold_to_dict
from .errors import DomainError, EngineError, NotComputable
from .record import Record

PRESETS_ENV = "SHEAFCALC_PRESETS"
TWIST_WIDTH_CAP = 200
SING1F_KINDS = ("empty", "irred", "other")  # dist.SING1_*, without loading dist


_quote = json.encoder.encode_basestring_ascii  # the C quoting of json.dumps


def _block(brackets: str, members: list, newline: str) -> str:
    # members between brackets ("{}" or "[]"), as json.dumps(indent=2) writes
    # them in a container whose closing bracket follows newline
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(members) + newline + brackets[1]


@functools.cache
def _cohom_format(newline: str):
    # the %-templates of a cohomology result that closes after newline and of
    # a row of its table, as json.dumps(indent=2) writes them, and the writer
    # of a row's cells; %d raises the digit limit's ValueError, as repr does
    member, item, field = (newline + "  " * k for k in (1, 2, 3))
    known = _block("{}", ['"status": "known"', '"value": %d'], field)
    bounded = _block("{}", ['"status": "bounded"', '"lo": %d', '"hi": %d'], field)
    unknown = _block("{}", ['"status": "unknown"'], field)

    def cell(pair):
        lo, hi = pair
        return unknown if hi is None else known % lo if lo == hi else bounded % pair

    keys = ['"twist": %d'] + [f'"h{i}": %s' for i in range(4)] + ['"chi": %d']
    row = item + _block("{}", keys, item)  # a row starts on its own line
    sources = ['"chern": "dslWhitney"', '"table": "bottChase"', '"chi": "hrr"']
    result = _block("{}", [
        '"expression": %s',
        '"threefold": %s',
        '"rank": %d',
        '"chern": ' + _block("[]", ["%d"] * 3, member),
        '"twists": ' + _block("[]", ["%d"] * 2, member),
        '"table": [%s' + member + "]",  # its rows, joined by ","; never empty
        '"sources": ' + _block("{}", sources, member),
    ], newline)
    return result, row, cell


class _CohomDocument(Record):
    # what cohomology prints as json: a --sheaf run's one result, or a --batch
    # run's results in {"results": [...]}
    threefold: str  # the --threefold name; a table's own X is P3 under any name
    lo: int
    hi: int
    results: list  # (expression, chern, rows of (twist, column, chi)) each
    batch: bool

    def json(self) -> str:
        result, row, cell = _cohom_format("\n    " if self.batch else "\n")
        threefold, lo, hi = _quote(self.threefold), self.lo, self.hi
        texts = [
            result % (
                _quote(expression), threefold, chern.rank, chern.c1, chern.n2, chern.n3,
                lo, hi, ",".join([
                    row % (t, cell(h0), cell(h1), cell(h2), cell(h3), chi)
                    for t, (h0, h1, h2, h3), chi in rows
                ]),
            )
            for expression, chern, rows in self.results
        ]
        if not self.batch:
            return texts[0]
        return '{\n  "results": %s\n}' % (_block("[]", texts, "\n  ") if texts else "[]")


class OutputDocument(Record):
    format: str
    # a handler may leave out (None) the one its format does not print
    payload: dict | _CohomDocument | None  # what json prints; json.dumps writes a dict
    rows: list | None  # what table and csv print: rows of str, the first the header

    def render(self) -> str:
        if self.format == "json":
            if type(self.payload) is _CohomDocument:
                return self.payload.json() + "\n"
            return json.dumps(self.payload, indent=2) + "\n"
        if self.format == "csv":
            import csv

            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerows(self.rows)
            return buf.getvalue()
        widths = [
            max(len(row[i]) for row in self.rows)
            for i in range(len(self.rows[0]))
        ]
        lines = []
        for idx, row in enumerate(self.rows):
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            )
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return json.dumps(list(value))
    return str(value)


def _flatten(payload: dict, prefix: str = "") -> list:
    rows = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, name + "."))
        else:
            rows.append([name, _scalar(value)])
    return rows


def _field_doc(payload: dict) -> tuple[dict, list]:
    return payload, [["field", "value"]] + _flatten(payload)


def _resolve_threefold(name_or_path: str) -> ThreefoldData:
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]
    # os.path.isfile, unlike Path.is_file, answers False to a name too long
    # or a directory that cannot be searched
    env_dir = os.environ.get(PRESETS_ENV)
    if env_dir:
        candidate = Path(env_dir) / f"{name_or_path}.json"
        if os.path.isfile(candidate):
            return load_threefold(candidate)
    if os.path.isfile(name_or_path):
        return load_threefold(name_or_path)
    raise DomainError(
        f"unknown threefold '{name_or_path}': not a preset, not a file, and "
        f"not found under ${PRESETS_ENV}"
    )


def _parse_twists(text: str, parser) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        parser.error(f"--twists must look like lo..hi, got '{text}'")
    try:
        lo, hi = int(m.group(1)), int(m.group(2))
    except ValueError:  # more digits than the interpreter converts
        limit = sys.get_int_max_str_digits()
        parser.error(f"--twists bounds have more than {limit} digits")
    if lo > hi:
        parser.error(f"--twists range {text} is empty")
    return lo, hi


def _pair_text(pair) -> str:
    # a table's (lo, hi) pair in a table or csv cell: 3, 1..4 or ?
    lo, hi = pair
    if hi is None:
        return "?"
    if lo == hi:
        return str(lo)
    return f"{lo}..{hi}"


def _chern_triple(c) -> list:
    return [c.c1, c.n2, c.n3]


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (payload, rows).


def _profile_from_args(args, parser, X):
    from . import dist

    if args.degree is not None:
        if not X.is_p3:
            parser.error("--degree is defined on p3 only; use --c1")
        f = 2 - args.degree
    else:
        f = args.c1
    return dist.DistributionProfile(X, f, generic=args.generic)


def _cmd_invariants(args, parser):
    from . import dist

    X = _resolve_threefold(args.threefold)
    profile = _profile_from_args(args, parser, X)
    chern = dist.dist_chern(profile)
    length = dist.singular_length(profile)
    verdict = dist.stability_classify(profile)
    payload = {
        "threefold": X.name,
        "c1_tangent": profile.f,
        "kappa": profile.kappa,
        "degree": profile.degree,
        "chern": _chern_triple(chern),
        "singular_length": length,
        "stability": {"status": verdict.status, "reason": verdict.reason},
        "hypotheses": {
            "generic": profile.generic,
            "h1_line_vanishing": X.h1_line_vanishing,
            "tx_stable": X.tx_stable,
        },
        "sources": {
            "chern": "thmD",
            "singular_length": "eqLength",
            "stability": "thmA",
        },
    }
    return _field_doc(payload)


def _cmd_moduli(args, parser):
    from . import modulispec

    report = modulispec.moduli_report(args.degree)
    resolution = modulispec.global_gen_resolution(args.degree)
    normalized = modulispec.normalize_chern(report.chern, PRESETS["p3"])
    payload = {
        "degree": report.d,
        "dim_component": report.dim_component,
        "chern": _chern_triple(report.chern),
        "normalized_chern": _chern_triple(normalized),
        "ext1": report.ext1,
        "ext2": report.ext2,
        "smooth_point": report.smooth_point,
        "rational": report.rational,
        "family_dim": report.family_dim,
        "curve_family": None,
        "resolution": {
            "middle": resolution.middle,
            "kernel": resolution.kernel,
            "h0_twisted": resolution.h0_twisted,
            "chern_twisted": _chern_triple(resolution.chern_twisted),
        },
        "sources": {
            "dim_component": "thmC",
            "chern": "thmC",
            "normalized_chern": "picAction",
            "ext1": "eqExtDiff",
            "ext2": "eqKey",
            "family_dim": "thmC",
            "curve_family": "propCurves",
            "resolution": "lemmaGlobalGen",
        },
    }
    if report.d >= 1:
        family = modulispec.curve_family(report.d)
        payload["curve_family"] = {
            "degree": family.degree_C,
            "genus": family.genus,
            "points": family.points,
            "family_dim": family.family_dim,
        }
    return _field_doc(payload)


def _cmd_cohomology(args, parser):
    # --sheaf E runs as a batch of one; builds only what --format prints
    from .sheafdsl import cohom_of, parse, parse_batch, pretty

    X = _resolve_threefold(args.threefold)
    lo, hi = _parse_twists(args.twists, parser)
    batch = args.batch is not None
    if not batch:
        if hi - lo + 1 > TWIST_WIDTH_CAP:
            parser.error(f"--twists width exceeds {TWIST_WIDTH_CAP}; use --batch mode")
        exprs = [parse(args.sheaf)]
    else:
        # a batch builds every row before printing, so it takes the engine's cap
        from .cohomology import _MAX_SPAN

        if hi - lo + 1 > _MAX_SPAN:
            parser.error(f"--twists width exceeds {_MAX_SPAN}")
        try:
            text = Path(args.batch).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DomainError(f"cannot read batch file: {exc}") from exc
        exprs = parse_batch(text)
    results = []
    for expr in exprs:
        table = cohom_of(expr, (lo, hi), X)
        # chi is read here, after this expression's walk and before the next one's
        chis = chi_series(table.chern, lo, table.X)
        rows = [(t, table.column(t), chi) for t, chi in zip(range(lo, hi + 1), chis)]
        results.append((pretty(expr), table.chern, rows))
    if args.format == "json":
        return _CohomDocument(X.name, lo, hi, results, batch), None
    return None, [["expression"] * batch + ["twist", "h0", "h1", "h2", "h3", "chi"]] + [
        [name] * batch + [str(t), *map(_pair_text, column), str(chi)]
        for name, _, rows in results for t, column, chi in rows
    ]


def _cmd_spectrum(args, parser):
    from . import modulispec

    X = _resolve_threefold(args.threefold)
    point = modulispec.spectrum_point(X, args.r)
    payload = {
        "threefold": X.name,
        "r": point.r,
        "chern": _chern_triple(point.triple),
    }
    sources = {"chern": "thmD"}
    if args.normalize:
        normalized = modulispec.normalize(point)
        payload["normalized"] = _chern_triple(normalized.triple)
        sources["normalized"] = "picAction"
    payload["sources"] = sources
    return _field_doc(payload)


def _cmd_subfoliation(args, parser):
    from . import dist

    X = _resolve_threefold(args.threefold)
    generic = args.sing1f == dist.SING1_EMPTY
    profile = dist.DistributionProfile(X, args.c1, generic=generic)
    report = dist.subfoliation_analyze(profile, args.tg, args.sing1f)
    payload = {
        "threefold": X.name,
        "c1_tangent": profile.f,
        "tg": report.tG,
        "lfg_degree": report.lfg_degree,
        "y_class": report.y_class,
        "split": report.split,
        "split_degree_proof": report.split_degree_proof,
        "split_degree_statement": report.split_degree_statement,
        "sing_structure": report.sing_structure,
        "branches": list(report.branches),
        "sources": {
            "y_class": "propSub",
            "split": "thmB",
            "sing_structure": "propSub",
        },
    }
    return _field_doc(payload)


def _cmd_conncomp(args, parser):
    from . import dist
    from .cohomology import generic_dist_cohom

    X = _resolve_threefold(args.threefold)
    profile = dist.DistributionProfile(X, args.c1, generic=False)
    if args.generic:
        if not X.is_p3:
            raise NotComputable(
                "generic-case h^2 substitution is only available on p3"
            )
        d = 2 - args.c1
        h2 = generic_dist_cohom(d, -d - 2)[2].lo
        h2_origin = "generic-case"
        # the lemma's closed forms reach twist -d - 2 only up to degree 1
        h2_source = "serreDuality" if d >= 2 else "lemmaCohomology"
    else:
        h2, h2_origin, h2_source = args.h2, "user", "input"
    report = dist.conn_components(profile, h2, args.c3)
    count = (
        {"kind": "Exact", "value": report.lo}
        if report.kind == "Exact"
        else {"kind": "Interval", "lo": report.lo, "hi": report.hi}
    )
    payload = {
        "threefold": X.name,
        "c1_tangent": profile.f,
        "h2": h2,
        "h2_origin": h2_origin,
        "c3": args.c3,
        "count": count,
        "hypotheses": {
            "h1_tangent_vanishes": report.h1_tangent_vanishes,
            "h2_tangent_vanishes": report.h2_tangent_vanishes,
            "h1_structure_vanishes": report.h1_structure_vanishes,
        },
        "sources": {
            "count": "thmE" if report.kind == "Exact" else "corP3",
            "h2": h2_source,
        },
    }
    return _field_doc(payload)


def _cmd_presets(args, parser):
    records = [threefold_to_dict(X) for X in PRESETS.values()]
    header = list(records[0].keys())
    rows = [header] + [[_scalar(rec[k]) for k in header] for rec in records]
    return {"presets": records}, rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheafcalc",
        description="Exact invariants of codimension-one distributions and "
        "reflexive sheaves on Picard-rank-one threefolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("table", "csv", "json"),
            default="table",
            help="output format (default: table)",
        )

    p = sub.add_parser("invariants", help="Chern data, singular length and "
                       "stability of a distribution")
    p.add_argument("--threefold", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=int, help="degree d (p3 only)")
    group.add_argument("--c1", type=int, help="c1 of the tangent sheaf")
    p.add_argument("--generic", action="store_true",
                   help="assert the singular scheme has dimension <= 0")
    add_format(p)
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("moduli", help="moduli component data for degree d on p3")
    p.add_argument("--degree", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_moduli)

    p = sub.add_parser("cohomology", help="cohomology table of a sheaf expression")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sheaf", help="sheaf expression")
    group.add_argument("--batch", help="file with one expression per line")
    p.add_argument("--twists", required=True, help="inclusive range lo..hi")
    p.add_argument("--threefold", default="p3")
    add_format(p)
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("spectrum", help="rank-2 stable-spectrum point")
    p.add_argument("--threefold", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--normalize", action="store_true")
    add_format(p)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("subfoliation", help="rank-1 subfoliation analysis")
    p.add_argument("--threefold", required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--tg", type=int, required=True)
    p.add_argument("--sing1f", required=True,
                   choices=SING1F_KINDS)
    add_format(p)
    p.set_defaults(handler=_cmd_subfoliation)

    p = sub.add_parser("conncomp", help="connected components of the "
                       "1-dimensional singular locus")
    p.add_argument("--threefold", required=True)
    p.add_argument("--c1", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--h2", type=int,
                       help="h^2 of the twisted tangent sheaf")
    group.add_argument("--generic", action="store_true",
                       help="substitute the generic-case value (p3 only)")
    p.add_argument("--c3", type=int, required=True)
    add_format(p)
    p.set_defaults(handler=_cmd_conncomp)

    p = sub.add_parser("presets", help="shipped threefold profiles")
    p.add_argument("action", choices=("list",))
    add_format(p)
    p.set_defaults(handler=_cmd_presets)

    return parser


def _join_twist_values(argv: list) -> list:
    # argparse mistakes a leading-dash value like -1..1 for an option flag;
    # fold it into --twists=... form so the documented syntax works, also
    # after an abbreviation that argparse reads as --twists (--tw and longer)
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if len(arg) > 3 and "--twists".startswith(arg) and i + 1 < len(argv):
            out.append(f"--twists={argv[i + 1]}")
            i += 2
            continue
        out.append(arg)
        i += 1
    return out


_parser = None  # main's parser, built on its first call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_twist_values(list(argv)))
    try:
        payload, rows = args.handler(args, parser)
        document = OutputDocument(args.format, payload, rows).render()
    except EngineError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # an int past the interpreter's digit limit
        if "integer string conversion" not in str(exc):
            raise
        message = f"an integer has more than {sys.get_int_max_str_digits()} digits"
        print(f"{NotComputable.name}: {message}", file=sys.stderr)
        return 3
    try:
        sys.stdout.write(document)
    except UnicodeEncodeError as exc:  # the whole document is encoded first
        message = f"the document has characters that {exc.encoding} cannot encode"
        print(f"{NotComputable.name}: {message}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
