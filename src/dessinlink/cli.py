"""Command-line front end: dispatch computations, emit JSON or plain text.

Exit codes: 0 success, 2 usage, 3 bad input, 4 cap exceeded,
5 unmet precondition, 6 file error (a table, cache or output path that
cannot be read or written), 1 internal error or a payload whose own
checks failed (such a payload is emitted but never cached).

Each command imports the math modules it uses when it runs, so
`--version` and a cache hit load none of them, and a request builds the
subparser of its own command only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from . import __version__
from .errors import CapExceededError, DiagramError, InternalError, PreconditionError
from .table import knot_table

if TYPE_CHECKING:
    from .diagram import PDCode
    from .poly import LaurentPoly

SCHEMA = "dessinlink/1"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_CAP = 4
EXIT_PRECONDITION = 5
EXIT_IO = 6

_METHOD_ALIASES = {
    "quasitree": "quasitree",
    "jones": "jones_eval",
    "charpoly": "charpoly",
    "treediff": "tree_difference",
}


class _UsageError(Exception):
    pass


# ==========================================================================
# Input plumbing
# ==========================================================================


def _poly_fields(p: LaurentPoly, var: str) -> Dict[str, Any]:
    return {
        "string": p.to_string(var),
        "terms": {str(e): c for e, c in p.terms()},
    }


def _load_pd(args: argparse.Namespace) -> PDCode:
    from .diagram import parse_pd, table_pd

    if args.pd and args.name:
        raise _UsageError("give either --pd or --name, not both")
    if args.pd:
        return parse_pd(args.pd)
    if args.name:
        return table_pd(args.name)
    raise _UsageError("an input diagram is required (--pd or --name)")


def _cap(args: argparse.Namespace) -> int:
    cap = getattr(args, "cap", None)
    if cap is None:
        return 24
    if cap < 1:
        raise _UsageError("--cap must be >= 1")
    if cap > 28 and not getattr(args, "allow_large", False):
        raise _UsageError("--cap beyond 28 requires --allow-large")
    return cap


def _state_arg(pd: PDCode, text: str):
    if text in ("A", "all-A"):
        return 0
    if text in ("B", "all-B"):
        return (1 << pd.n) - 1
    return text


# ==========================================================================
# Subcommand payloads
# ==========================================================================


def _cmd_bracket(args) -> Dict[str, Any]:
    from .diagram import pd_to_text, state_sum_bracket
    from .invariants import bracket_via_dessin

    pd = _load_pd(args)
    br = bracket_via_dessin(pd, cap=_cap(args))
    payload: Dict[str, Any] = {
        "pd": pd_to_text(pd),
        "crossings": pd.n,
        "bracket": _poly_fields(br, "A"),
    }
    if args.oracle:
        payload["oracle_equal"] = state_sum_bracket(pd) == br
    return payload


def _cmd_jones(args) -> Dict[str, Any]:
    from .diagram import pd_to_text
    from .invariants import jones_polynomial

    pd = _load_pd(args)
    jr = jones_polynomial(pd, cap=_cap(args))
    payload = {
        "pd": pd_to_text(pd),
        "writhe": jr.writhe,
        "variable": jr.variable,
        "jones": _poly_fields(jr.poly, jr.variable),
    }
    return payload


def _cmd_det(args) -> Dict[str, Any]:
    from .diagram import pd_to_text
    from .invariants import determinant

    pd = _load_pd(args)
    if args.method == "all":
        methods = None
    else:
        methods = (_METHOD_ALIASES[args.method],)
    rep = determinant(pd, methods=methods, cap=_cap(args))
    return {
        "pd": pd_to_text(pd),
        "value": rep.value,
        "methods": dict(sorted(rep.methods.items())),
        "skipped": dict(sorted(rep.skipped.items())),
    }


def _cmd_dessin(args) -> Dict[str, Any]:
    from .dessin import build_dessin, dessin_counts, dessin_to_text, dual
    from .diagram import pd_to_text

    pd = _load_pd(args)
    state = _state_arg(pd, args.state)
    d = build_dessin(pd, state)
    c = dessin_counts(d)
    return {
        "pd": pd_to_text(pd),
        "state": args.state,
        "counts": {"v": c.v, "e": c.e, "f": c.f, "g": c.g, "k": c.k},
        "dessin": dessin_to_text(d),
        "dual": dessin_to_text(dual(d)),
    }


def _cmd_quasitrees(args) -> Dict[str, Any]:
    from .dessin import build_dessin, dessin_counts, quasi_tree_counts
    from .diagram import pd_to_text

    pd = _load_pd(args)
    d = build_dessin(pd, 0)
    c = dessin_counts(d)
    s = quasi_tree_counts(d, cap=_cap(args))
    alt = sum((-1) ** j * sj for j, sj in enumerate(s))
    return {
        "pd": pd_to_text(pd),
        "genus": c.g,
        "s": list(s),
        "alternating_sum": alt,
        "determinant": abs(alt),
    }


def _cmd_coeffs(args) -> Dict[str, Any]:
    from .dessin import build_dessin
    from .diagram import pd_to_text
    from .invariants import _coefficient_checks, coefficient_table

    pd = _load_pd(args)
    cap = _cap(args)
    tab = coefficient_table(pd, cap=cap, check=False)
    checks, skipped = _coefficient_checks(build_dessin(pd, 0), tab, cap)
    payload: Dict[str, Any] = {
        "pd": pd_to_text(pd),
        "top_exponent": tab.top_exponent,
        "coeffs": list(tab.coeffs),
        "checks": checks,
    }
    if skipped:
        payload["skipped"] = skipped
    return payload


def _cmd_reduce(args) -> Dict[str, Any]:
    from .dessin import build_dessin, dessin_counts
    from .diagram import pd_to_text, reduce_to_one_vertex
    from .invariants import bracket_via_dessin

    pd = _load_pd(args)
    cap = _cap(args)
    red = reduce_to_one_vertex(pd)
    d0 = dessin_counts(build_dessin(pd, 0))
    d1 = dessin_counts(build_dessin(red, 0))
    payload: Dict[str, Any] = {
        "pd": pd_to_text(pd),
        "reduced_pd": pd_to_text(red),
        "crossings": red.n,
        "bookkeeping": {
            "edges": d1.e == d0.e + 2 * (d0.v - 1),
            "genus": d1.g == d0.g + d0.v - 1,
            "one_circle": d1.v == 1,
        },
    }
    try:
        payload["bracket_preserved"] = bracket_via_dessin(
            red, cap=cap
        ) == bracket_via_dessin(pd, cap=cap)
    except CapExceededError as exc:
        payload["skipped"] = {"bracket_preserved": str(exc)}
    return payload


def _cmd_charpoly(args) -> Dict[str, Any]:
    from .chord import (
        char_poly,
        chords_to_text,
        intersection_matrix,
        parse_chords,
        quasi_counts_and_det,
        to_chord_diagram,
    )

    if args.chords:
        if args.pd or args.name:
            raise _UsageError("give either --chords or a diagram, not both")
        cd = parse_chords(args.chords)
        source: Dict[str, Any] = {"chords": chords_to_text(cd)}
    else:
        if not (args.pd or args.name):
            raise _UsageError("an input is required (--chords, --pd or --name)")
        from .dessin import build_dessin
        from .diagram import pd_to_text, reduce_to_one_vertex

        pd = _load_pd(args)
        red = reduce_to_one_vertex(pd)
        cd = to_chord_diagram(build_dessin(red, 0))
        source = {"pd": pd_to_text(pd), "chords": chords_to_text(cd)}
    s, det = quasi_counts_and_det(cd)
    payload = dict(source)
    payload.update(
        {
            "char_poly": _poly_fields(char_poly(cd), "x"),
            "s": list(s),
            "determinant": det,
            "intersection_matrix": intersection_matrix(cd),
        }
    )
    return payload


def _cmd_pretzel(args) -> Dict[str, Any]:
    from .dessin import build_dessin, dessin_counts
    from .diagram import pd_to_text, pretzel_pd
    from .invariants import determinant, pretzel_determinant

    pd = pretzel_pd(args.params)
    c = dessin_counts(build_dessin(pd, 0))
    payload: Dict[str, Any] = {
        "params": list(args.params),
        "pd": pd_to_text(pd),
        "counts": {"v": c.v, "e": c.e, "f": c.f, "g": c.g},
    }
    if args.det:
        pos = [x for x in args.params if x > 0]
        neg = [-x for x in args.params if x < 0]
        rep = determinant(pd, cap=_cap(args))
        payload["determinant"] = rep.value
        payload["methods"] = dict(sorted(rep.methods.items()))
        if pos and neg:
            closed = pretzel_determinant(pos, neg)
            payload["closed_form"] = closed
            payload["agree"] = closed == rep.value
    return payload


def _cmd_twist(args) -> Dict[str, Any]:
    from .dessin import build_dessin, dessin_counts
    from .diagram import pd_to_text, strand_components, twist_pd
    from .invariants import bracket_via_dessin, determinant, jones_polynomial

    pd = twist_pd(args.p, args.q)
    cap = _cap(args)
    c = dessin_counts(build_dessin(pd, 0))
    br = bracket_via_dessin(pd, cap=cap)
    payload: Dict[str, Any] = {
        "p": args.p,
        "q": args.q,
        "pd": pd_to_text(pd),
        "counts": {"v": c.v, "e": c.e, "f": c.f, "g": c.g},
        "bracket": _poly_fields(br, "A"),
        "determinant": determinant(pd, cap=cap).value,
    }
    if len(strand_components(pd)) == 1:
        jr = jones_polynomial(pd, cap=cap)
        payload["jones"] = _poly_fields(jr.poly, jr.variable)
        payload["variable"] = jr.variable
    return payload


# ==========================================================================
# verify: the bundled-table invariant suite
# ==========================================================================


def _verify_checks(cap: int) -> List[Dict[str, Any]]:
    from .chord import char_poly, quasi_counts_and_det, to_chord_diagram
    from .dessin import _scan, build_dessin, contract_parallel, dual, quasi_tree_counts
    from .diagram import (
        parse_pd,
        pretzel_pd,
        reduce_to_one_vertex,
        state_circle_count,
        state_sum_bracket,
        twist_pd,
    )
    from .invariants import (
        _coefficient_checks,
        bracket_via_dessin,
        coefficient_table,
        determinant,
        pretzel_determinant,
        weighted_bracket,
    )
    from .poly import LaurentPoly

    checks: List[Dict[str, Any]] = []

    def add(name: str, ok: bool) -> None:
        checks.append({"name": name, "pass": bool(ok)})

    table = knot_table()
    for name in sorted(table):
        pd = parse_pd(table[name])
        d = build_dessin(pd, 0)
        br = bracket_via_dessin(pd, cap=cap)
        add(f"bracket_oracle_{name}", br == state_sum_bracket(pd))
        s = quasi_tree_counts(d, cap=cap)
        sd = quasi_tree_counts(dual(d), cap=cap)
        add(f"duality_{name}", s == tuple(reversed(sd)))
        # the quasi-tree counts above already held the scan to the cap
        add(
            f"face_crosscheck_{name}",
            all(f == state_circle_count(pd, sub) for sub, _, f in _scan(d, cap=cap)),
        )
        tab = coefficient_table(pd, cap=cap, check=False)
        add(f"coeff_table_{name}", _coefficient_checks(d, tab, cap)[0]["matches_bracket"])

    dets = {"3_1": 3, "4_1": 5, "5_2": 7, "6_2": 11, "8_21": 15}
    for name, want in sorted(dets.items()):
        if name in table:
            rep = determinant(parse_pd(table[name]), cap=cap)
            add(f"det_{name}", rep.value == want)

    cd = to_chord_diagram(build_dessin(reduce_to_one_vertex(twist_pd(2, 3)), 0))
    add("figure8_charpoly", char_poly(cd) == LaurentPoly({5: -1, 3: -6}))
    add("figure8_det", quasi_counts_and_det(cd)[1] == 5)

    pd = pretzel_pd((2, 3, -5))
    rep = determinant(pd, cap=cap)
    add("pretzel_2_3_-5", rep.value == 19 == pretzel_determinant((2, 3), (5,)))

    wpd = twist_pd(2, 3)
    wd = contract_parallel(build_dessin(wpd, 0))
    add(
        "weighted_bracket_twist_2_3",
        weighted_bracket(wd, cap=cap) == bracket_via_dessin(wpd, cap=cap),
    )
    return checks


def _cmd_verify(args) -> Dict[str, Any]:
    checks = _verify_checks(_cap(args))
    return {"checks": checks, "all_pass": all(c["pass"] for c in checks)}


# ==========================================================================
# Output, cache, dispatch
# ==========================================================================


def _render_plain(payload: Dict[str, Any], lines: List[str], prefix: str = "") -> None:
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            _render_plain(value, lines, prefix + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for item in value:
                mark = "PASS" if item.get("pass") else "FAIL"
                lines.append(f"{prefix}{mark} {item.get('name')}")
        else:
            lines.append(f"{prefix}{key}: {value}")


def _emit(payload: Dict[str, Any], args) -> None:
    if getattr(args, "plain", False):
        lines: List[str] = []
        _render_plain(payload, lines)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# options that choose where and how a payload is written, or acknowledge
# a large cap, but never change what it contains
_UNKEYED = frozenset({"out", "cache", "plain", "allow_large"})


def _source_digest() -> str:
    """sha256 of the package's own `*.py` files, read in name order."""
    here = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _cache_key(command: str, args) -> str:
    """Hash of every option except the `_UNKEYED` ones, the engine version
    and `_source_digest`, so a payload cached by other code is a miss.

    A `--name` is keyed on the PD text it names in the active table, and
    `verify` on the whole table, so pointing DESSINLINK_TABLE elsewhere
    never serves a result computed from another table.  A name missing
    from the table stays in the key; the command itself reports it.
    """
    relevant = {k: v for k, v in vars(args).items() if k not in _UNKEYED}
    relevant.update(command=command, engine=__version__, source=_source_digest())
    if command == "verify":
        relevant["table"] = knot_table()
    elif relevant.get("name") and not relevant.get("pd"):
        entries = knot_table()
        if relevant["name"] in entries:
            relevant["pd"], relevant["name"] = entries[relevant["name"]], None
    blob = json.dumps(relevant, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_get(path: str, key: str, command: str) -> Optional[Dict[str, Any]]:
    """The payload of `command` cached under `key`.  A line that does not
    decode, or whose payload is not this schema's output of `command`, is
    a miss.  Only lines that contain the key's text are decoded; the key
    itself is still compared in full."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    needle = key.encode()
    with fh:
        for line in fh:
            if needle not in line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if (
                isinstance(entry, dict)
                and entry.get("key") == key
                and isinstance(entry.get("payload"), dict)
                and entry["payload"].get("schema") == SCHEMA
                and entry["payload"].get("command") == command
            ):
                return entry["payload"]
    return None


def _cache_put(path: str, key: str, payload: Dict[str, Any]) -> None:
    """Append one entry with a single O_APPEND write, so entries from
    concurrent writers never interleave within a line."""
    line = json.dumps({"key": key, "payload": payload}, sort_keys=True) + "\n"
    data = line.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        written = os.write(fd, data)
    finally:
        os.close(fd)
    if written != len(data):
        raise OSError(f"short write to cache {path}: {written} of {len(data)} bytes")


def _checks_pass(payload: Dict[str, Any]) -> bool:
    """False when a payload reports one of its own checks as failed."""
    for flag in ("all_pass", "oracle_equal", "agree", "bracket_preserved"):
        if payload.get(flag) is False:
            return False
    return all(
        all(payload[group].values())
        for group in ("checks", "bookkeeping")
        if isinstance(payload.get(group), dict)
    )


_COMMANDS = {
    "bracket": _cmd_bracket,
    "jones": _cmd_jones,
    "det": _cmd_det,
    "dessin": _cmd_dessin,
    "quasitrees": _cmd_quasitrees,
    "coeffs": _cmd_coeffs,
    "reduce": _cmd_reduce,
    "charpoly": _cmd_charpoly,
    "pretzel": _cmd_pretzel,
    "twist": _cmd_twist,
    "verify": _cmd_verify,
}


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of `command` alone when it names one (the first argument
    of a request), else of every command, as `--help` and a typo need.
    Both give the same parse, help, usage and error text for `command`."""
    # options of every command; each command adds the groups it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to a file")
    common.add_argument("--cache", help="JSON-lines results cache path")
    common.add_argument("--plain", action="store_true", help="text output")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--pd", help="inline PD string, e.g. 'X[1,4,2,5] ...'")
    source.add_argument("--name", help="bundled table entry, e.g. 8_21")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument(
        "--cap", type=int, help="cap on scanned edges and on open arcs (default 24)"
    )
    capped.add_argument(
        "--allow-large", action="store_true", help="acknowledge caps beyond 28"
    )

    parser = argparse.ArgumentParser(
        prog="dessinlink",
        description="Exact link invariants via dessin expansions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    one = command in _COMMANDS
    # the metavar keeps every command in the one-command usage line; the
    # full tree has none, as it would rename `argument command` in a typo's error
    sub = parser.add_subparsers(
        dest="command", metavar="{%s}" % ",".join(_COMMANDS) if one else None
    )
    for name in (command,) if one else _COMMANDS:
        if name in ("pretzel", "twist", "verify"):  # these build or read their diagrams
            p = sub.add_parser(name, parents=[capped, common])
        elif name in ("dessin", "charpoly"):  # these run no scan
            p = sub.add_parser(name, parents=[source, common])
        else:
            p = sub.add_parser(name, parents=[source, capped, common])
        if name == "bracket":
            p.add_argument(
                "--oracle", action="store_true",
                help="cross-check by state sum (20-crossing cap, not --cap)",
            )
        elif name == "det":
            p.add_argument(
                "--method",
                choices=sorted(_METHOD_ALIASES) + ["all"],
                default="all",
            )
        elif name == "dessin":
            p.add_argument("--state", default="A", help="A, B, or a per-crossing string")
        elif name == "charpoly":
            p.add_argument("--chords", help="endpoint sequence, e.g. '1 2 1 2'")
        elif name == "pretzel":
            p.add_argument("params", type=int, nargs="+")
            p.add_argument("--det", action="store_true")
        elif name == "twist":
            p.add_argument("p", type=int)
            p.add_argument("q", type=int)
    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        key = None
        cache = getattr(args, "cache", None)
        if cache:
            key = _cache_key(args.command, args)
            hit = _cache_get(cache, key, args.command)
            if hit is not None:
                _emit(hit, args)
                return EXIT_OK if _checks_pass(hit) else EXIT_INTERNAL
        payload = _COMMANDS[args.command](args)
        payload = {"schema": SCHEMA, "command": args.command, **payload}
        passed = _checks_pass(payload)
        if cache and key and passed:
            _cache_put(cache, key, payload)
        _emit(payload, args)
        return EXIT_OK if passed else EXIT_INTERNAL
    except _UsageError as exc:
        _error(args, "usage", str(exc))
        return EXIT_USAGE
    except InternalError as exc:
        _error(args, "internal", str(exc))
        return EXIT_INTERNAL
    except CapExceededError as exc:
        _error(args, "cap-exceeded", str(exc))
        return EXIT_CAP
    except PreconditionError as exc:
        _error(args, "precondition", str(exc))
        return EXIT_PRECONDITION
    except DiagramError as exc:
        _error(args, "bad-input", str(exc))
        return EXIT_BAD_INPUT
    except OSError as exc:
        _error(args, "io", str(exc))
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive
        _error(args, "internal", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


def _error(args, kind: str, message: str) -> None:
    blob = {"schema": SCHEMA, "error": {"kind": kind, "message": message}}
    sys.stderr.write(json.dumps(blob, sort_keys=True) + "\n")


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
