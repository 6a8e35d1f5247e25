"""Command-line front end: voltlift <spectrum|verify|lift|walks|validate>."""

from __future__ import annotations

import argparse
import functools
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


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it as it was,
    and building it takes about 1.5 ms, mostly argparse's terminal-size
    queries, a sizeable share of a small command."""
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


def _read(path: str) -> bytes:
    """An input file's bytes: json.loads detects their UTF encoding itself."""
    with open(path, "rb") as f:
        return f.read()


def _load_group(spec: str) -> groups.GroupTable:
    if os.path.exists(spec):
        return groups.parse_group_table(_read(spec))
    return groups.build_builtin_group(spec)


def _load_digraph(path: str, group: groups.GroupTable) -> voltage.VoltageDigraph:
    return voltage.parse_voltage_digraph(_read(path), group)


def _load_irrep_set(args, group):
    if args.irreps:
        return reps.load_irreps(_read(args.irreps), group)
    return reps.builtin_irreps(group)


def _load_char_table(args, group):
    if args.chars:
        return reps.load_character_table(_read(args.chars), group)
    return reps.character_table(_load_irrep_set(args, group))


_CONTAINERS = (list, tuple, dict)


@functools.lru_cache(maxsize=None)
def _encoder(depth: int):
    """json's C encoder, made once per depth, for a container at that depth
    whose items are all scalars (and for a lone scalar). With no indent, and
    an item separator that carries the newline and the items' indent, it
    writes json.dumps(indent=2)'s layout bar the brackets' own lines. It
    takes the options json.dumps passes it by default, bar the circular
    check, which a payload, a tree, does not need."""
    encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", ",\n" + "  " * (depth + 1), False, False, True)
    return lambda x: "".join(encode(x, 0))


def _json_text(x, depth: int = 0) -> str:
    """json.dumps(x, indent=2), byte for byte. A container of scalars goes
    whole to the C encoder (_encoder); above those, containers are opened
    here and their items written by recursion."""
    if not isinstance(x, _CONTAINERS):
        return _encoder(depth)(x)
    is_dict = isinstance(x, dict)
    if not x:
        return "{}" if is_dict else "[]"
    pad = "  " * depth
    # the items' types, gathered in C, and one subclass test per distinct type
    types = set(map(type, x.values() if is_dict else x))
    if not any(issubclass(t, _CONTAINERS) for t in types):
        inner = _encoder(depth)(x)[1:-1]
    elif is_dict:  # each key as the C encoder writes it, then ": "
        key = _encoder(depth + 1)
        inner = (",\n  " + pad).join(key({k: 0})[1:-2] + _json_text(v, depth + 1)
                                     for k, v in x.items())
    else:
        inner = (",\n  " + pad).join(_json_text(v, depth + 1) for v in x)
    opening, closing = ("{", "}") if is_dict else ("[", "]")
    return f"{opening}\n  {pad}{inner}\n{pad}{closing}"


def _emit(args, payload, text) -> None:
    """Write payload as JSON in json.dumps(payload, indent=2)'s layout, or
    text() for --format text: the text form is built only when it is written."""
    if args.format == "json":
        out = _json_text(payload) + "\n"
    else:
        out = text() + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(out)
    else:
        sys.stdout.write(out)


def _cmd_spectrum(args) -> int:
    # a file the method never reads is refused, not silently ignored:
    # charsum reads the irreps only to build the characters --chars gives
    unread = {"repr": ["chars"], "charsum": ["irreps"] if args.chars else [],
              "bruteforce": ["irreps", "chars"]}[args.method]
    for option in unread:
        if getattr(args, option):
            raise spectra.SpectrumError(f"--method {args.method} does not read --{option}")
    group = _load_group(args.group)
    digraph = _load_digraph(args.digraph, group)
    if args.method == "repr":
        spectrum = spectra.lift_spectrum_repr(digraph, _load_irrep_set(args, group), args.tol)
    elif args.method == "charsum":
        spectrum = spectra.lift_spectrum_charsum(digraph, _load_char_table(args, group), args.tol)
    else:
        spectrum = spectra.lift_spectrum_bruteforce(digraph, args.tol)
    values = [{"re": v.real, "im": v.imag, "mult": m} for v, m in spectrum.entries]
    _emit(args, {"order": spectrum.total, "eigenvalues": values, "method": args.method},
          lambda: "\n".join(f"{spectra.format_eigenvalue(v)}^{m}" for v, m in spectrum.entries))
    return EXIT_OK


def _cmd_verify(args) -> int:
    group = _load_group(args.group)
    digraph = _load_digraph(args.digraph, group)
    # without --irreps, verify builds the builtin irreps once its oracle has
    # admitted the lift
    irreps = _load_irrep_set(args, group) if args.irreps else None
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
    """Write B^L, one entry per ordered pair (u, v) of base vertices, and
    the explicit lift's check of it, both from voltage._walk_table; a
    mismatch exits 1, and past the check's 200 lift vertices
    oracle_checked is false."""
    if args.length < 0:
        raise voltage.VoltageError("--length must be >= 0")
    group = _load_group(args.group)
    digraph = _load_digraph(args.digraph, group)
    power, match = voltage._walk_table(digraph, args.length)
    r = digraph.order
    # one nonzero pass over B^L, split per entry (u, v) by the cuts of the
    # sorted flat index u * r + v
    u, v, g = np.nonzero(power)
    cuts = np.searchsorted(u * r + v, np.arange(r * r + 1)).tolist()
    names = np.asarray(group.element_names, dtype=object)[g].tolist()
    coeffs = power[u, v, g].tolist()
    entries = [{"from": digraph.vertices[k // r], "to": digraph.vertices[k % r],
                "coeffs": dict(zip(names[a:b], coeffs[a:b]))}
               for k, (a, b) in enumerate(zip(cuts, cuts[1:]))]
    payload = {"length": args.length, "entries": entries, "oracle_checked": match is not None}
    if match is not None:
        payload["oracle_match"] = match

    def text():
        lines = []
        for e in entries:
            terms = " + ".join(
                name if c == 1 else f"{c}*{name}" for name, c in e["coeffs"].items()
            )
            lines.append(f"{e['from']} -> {e['to']}: {terms or '0'}")
        if match is not None:
            lines.append(f"oracle: {'MATCH' if match else 'MISMATCH'}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return EXIT_MISMATCH if match is False else EXIT_OK


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
