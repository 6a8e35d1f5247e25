"""Command-line front end: voltlift <spectrum|verify|lift|walks|validate>."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import groups, reps, spectra, voltage

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT_ERROR = 2

_INPUT_ERRORS = (
    groups.GroupError,
    reps.RepresentationError,
    voltage.VoltageError,
    spectra.SpectrumError,
    OSError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltlift",
        description="Spectra of lifted digraphs from voltage assignments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes only the options it reads: the irrep and character
    # files where irreps are used, the tolerance where spectra are clustered
    def common(p, need_digraph=True, tables=False, tol=False):
        if need_digraph:
            p.add_argument("--digraph", required=True, help="voltage digraph JSON file")
        p.add_argument(
            "--group",
            required=True,
            help="builtin spec (cyclic:n, dihedral:n, product:...) or a "
            "group-table JSON file",
        )
        if tables:
            p.add_argument("--irreps", help="irreps JSON file")
            p.add_argument("--chars", help="character-table JSON file")
        if tol:
            p.add_argument(
                "--tol", type=float, default=None,
                help="clustering tolerance (default 1e-9 * (1 + max in-degree))",
            )
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("spectrum", help="compute the lift spectrum")
    common(p, tables=True, tol=True)
    p.add_argument(
        "--method", choices=["repr", "charsum", "bruteforce"], default="repr"
    )

    p = sub.add_parser("verify", help="cross-check repr, bruteforce, and charsum")
    common(p, tables=True, tol=True)

    p = sub.add_parser("lift", help="emit the explicit lift digraph")
    common(p)

    p = sub.add_parser("walks", help="walk-count coefficient table of B^L")
    common(p)
    p.add_argument("--length", type=int, required=True)

    p = sub.add_parser("validate", help="validate group/irreps/character inputs")
    common(p, need_digraph=False, tables=True)
    return parser


def _load_group(spec: str) -> groups.GroupTable:
    if os.path.exists(spec):
        with open(spec) as f:
            return groups.parse_group_table(f.read())
    return groups.build_builtin_group(spec)


def _load_digraph(path: str, group: groups.GroupTable) -> voltage.VoltageDigraph:
    with open(path) as f:
        return voltage.parse_voltage_digraph(f.read(), group)


def _load_irrep_set(args, group):
    if args.irreps:
        with open(args.irreps) as f:
            return reps.load_irreps(f.read(), group)
    return reps.builtin_irreps(group)


def _load_char_table(args, group):
    if args.chars:
        with open(args.chars) as f:
            return reps.load_character_table(f.read(), group)
    return reps.character_table(_load_irrep_set(args, group))


def _emit(args, payload, text) -> None:
    """Write payload as JSON, or text() for --format text: the text form is
    built only when it is written."""
    if args.format == "json":
        out = json.dumps(payload, indent=2) + "\n"
    else:
        out = text() + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(out)
    else:
        sys.stdout.write(out)


def _cmd_spectrum(args) -> int:
    group = _load_group(args.group)
    digraph = _load_digraph(args.digraph, group)
    if args.method == "repr":
        spectrum = spectra.lift_spectrum_repr(digraph, _load_irrep_set(args, group), args.tol)
    elif args.method == "charsum":
        spectrum = spectra.lift_spectrum_charsum(digraph, _load_char_table(args, group), args.tol)
    else:
        spectrum = spectra.lift_spectrum_bruteforce(digraph, args.tol)
    _emit(
        args,
        spectra.spectrum_to_json(spectrum, args.method),
        lambda: spectra.spectrum_to_text(spectrum),
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    group = _load_group(args.group)
    digraph = _load_digraph(args.digraph, group)
    irreps = _load_irrep_set(args, group)
    chars = _load_char_table(args, group) if args.chars else None
    reports = spectra.verify(digraph, irreps, chars, args.tol)
    payload = {
        name: {"matched": report.matched, "worst_distance": report.worst_distance, **extra}
        for name, (report, extra) in reports.items()
    }
    _emit(args, payload, lambda: "\n".join(
        f"{name}: {report} at tol {extra['tolerance']:.1e}"
        for name, (report, extra) in reports.items()
    ))
    return EXIT_OK if all(r.matched for r, _ in reports.values()) else EXIT_MISMATCH


def _cmd_lift(args) -> int:
    group = _load_group(args.group)
    digraph = _load_digraph(args.digraph, group)
    doc = voltage.lift_to_json(digraph)
    _emit(args, doc, lambda: "\n".join(f"{a} -> {b}" for a, b in doc["arcs"]))
    return EXIT_OK


def _cmd_walks(args) -> int:
    if args.length < 0:
        raise voltage.VoltageError("--length must be >= 0")
    group = _load_group(args.group)
    digraph = _load_digraph(args.digraph, group)
    b = voltage.associated_matrix(digraph)
    power = voltage.algebra_matrix_power(b, args.length, group)
    entries = [
        {
            "from": digraph.vertices[u],
            "to": digraph.vertices[v],
            "coeffs": {group.element_names[g]: power[u, v, g] for g in np.flatnonzero(power[u, v])},
        }
        for u in range(digraph.order)
        for v in range(digraph.order)
    ]
    n = group.order
    payload = {"length": args.length, "entries": entries}
    if digraph.order * n <= 200:
        # walks from (u, e) to (v, g) are the coefficients of g in B^L[u, v]:
        # only the r rows of A^L at the identity fibre are compared, so only
        # they are multiplied out, in exact ints
        adj = voltage.build_lift(digraph).astype(object)
        rows = np.eye(len(adj), dtype=object)[group.identity::n]
        for _ in range(args.length):
            rows = rows @ adj
        payload["oracle_checked"] = True
        payload["oracle_match"] = np.array_equal(rows.reshape(power.shape), power)
    else:
        payload["oracle_checked"] = False

    def text():
        lines = []
        for e in entries:
            terms = " + ".join(
                name if c == 1 else f"{c}*{name}" for name, c in e["coeffs"].items()
            )
            lines.append(f"{e['from']} -> {e['to']}: {terms or '0'}")
        if payload["oracle_checked"]:
            lines.append(f"oracle: {'MATCH' if payload['oracle_match'] else 'MISMATCH'}")
        return "\n".join(lines)

    _emit(args, payload, text)
    if payload.get("oracle_checked") and not payload["oracle_match"]:
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_validate(args) -> int:
    group = _load_group(args.group)
    lines = [
        f"group: order {group.order}, {len(group.classes)} conjugacy classes, "
        f"{'abelian' if group.is_abelian() else 'non-abelian'}"
    ]
    if args.irreps:
        s = _load_irrep_set(args, group)
        lines.append(f"irreps: {len(s.dims)} irreps, dims {list(s.dims)}")
    if args.chars:
        t = _load_char_table(args, group)
        lines.append(f"characters: {t.rows.shape[0]} rows, dims {list(t.dims)}")
    if not args.irreps and not args.chars and group.family:
        s = reps.builtin_irreps(group)
        lines.append(f"builtin irreps: dims {list(s.dims)}")
    lines.append("all checks passed")
    payload = {"valid": True, "diagnostics": lines}
    _emit(args, payload, lambda: "\n".join(lines))
    return EXIT_OK


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "lift": _cmd_lift,
    "walks": _cmd_walks,
    "validate": _cmd_validate,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"voltlift: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
