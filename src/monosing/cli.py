"""Command-line front end.

Commands: info, basis, perfect, gproj, gorenstein, singcat, graded, glue,
oracle.  Default output is aligned text; --json selects the documented JSON
schemas.  Exit codes: 0 success, 1 analysis refusal (not 1-Gorenstein, not
Gorenstein, infinite-dimensional), 2 input errors.

Each command computes one report: its handler returns the JSON document, the
text lines rendered from it, and the exit code.  ``main`` alone picks the
view, writes it, and maps errors to exit codes.

Paths are printed in traversal order (first-traversed arrow first) with
middle-dot separators; orbit categories print as D^b(A_r)/[tau^n].
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    InfiniteDimensional,
    MonosingError,
    NotGorenstein,
    NotOneGorenstein,
    ParseError,
)
from .gluing import Involution, bar_presentation, equivalence_report, glue
from .gorenstein import gorenstein_to_json, is_one_gorenstein, singularity_decomposition
from .graded import graded_singularity_description
from .oracle import (
    crosscheck_classification,
    injective_dimension_profile,
    resolution_trace_report,
    verify_omega_T_ext_vanishing,
)
from .perfection import perfection_to_json
from .presentation import (
    dumps_json,
    minimal_relations,
    parse_presentation_file,
    presentation_to_json,
    presentation_to_text,
)


def _kv(label, value):
    if len(label) >= 14:
        return f"{label} {value}"
    return f"{label:<14}{value}"


def _words(traversals):
    """Traversal-order words as middle-dot paths, or "(none)"."""
    return " ".join("·".join(w) for w in traversals) or "(none)"


def cmd_info(pres, args):
    """echo the presentation with dimension and minimal relations"""
    data = presentation_to_json(pres)
    data["dimension"] = pres.dimension()
    data["minimal_relations"] = [list(f.traversal) for f in minimal_relations(pres)]
    lines = [
        _kv("vertices", " ".join(data["vertices"])),
        _kv("arrows", " ".join(f"{a['id']}:{a['src']}->{a['tgt']}" for a in data["arrows"])),
        _kv("relations", _words(data["relations"])),
        _kv("minimal", _words(data["minimal_relations"])),
        _kv("dimension", data["dimension"]),
        _kv("max length", pres.basis().max_length()),
    ]
    return data, lines, 0


def cmd_basis(pres, args):
    """list the nonzero-path basis"""
    basis = pres.basis()
    data = {"dimension": basis.dimension, "paths": [str(p) for p in basis]}
    lines = [_kv("dimension", data["dimension"])]
    for k in sorted({p.length for p in basis}):
        lines.append(_kv(f"length {k}", " ".join(str(p) for p in basis.of_length(k))))
    return data, lines, 0


def cmd_perfect(pres, args):
    """perfect pairs, successor cycles, GP modules"""
    data = perfection_to_json(pres)
    lines = [
        _kv("pairs", " ".join(f"({p},{q})" for p, q in data["perfect_pairs"]) or "(none)"),
        _kv("cycles", "  ".join("[" + " -> ".join(c) + "]" for c in data["cycles"])
            or "(none)"),
        _kv("cm type", data["cm_type"]),
    ]
    return data, lines, 0


def cmd_gproj(pres, args):
    """classify stable Gorenstein projective modules"""
    data = perfection_to_json(pres)
    lines = [_kv("cm type", data["cm_type"])]
    for m in data["gp_modules"]:
        vec = " ".join(f"{v}:{n}" for v, n in m["dim_vector"].items())
        lines.append(_kv(f"A·({m['generator']})", f"dim {vec}  top {m['top']}"))
    return data, lines, 0


def cmd_gorenstein(pres, args):
    """1-Gorenstein verdict, relation cycles, Nakayama/gentle checks"""
    data = gorenstein_to_json(pres)
    lines = [_kv("1-Gorenstein", data["one_gorenstein"])]
    if data["one_gorenstein"]:
        for c in data["cycles"]:
            lines.append(_kv("cycle", f"{'·'.join(c['arrows'])} (n={c['n']}, r={c['r']})"))
    else:
        w = data["witness"]
        lines.append(_kv("witness", f"p={w['left_factor']}, relation {w['relation']}"))
    nak = data["nakayama"]
    lines.append(_kv("nakayama", f"basic {nak['n']}-cycle, relations length {nak['m']}"
                     if nak else "no"))
    g = data["gentle"]
    lines.append(_kv("gentle", f"yes; cycle criterion {g['criterion']}" if g["is_gentle"]
                     else f"no ({g['reason']})"))
    prof = data["oracle"]
    lines.append(_kv("oracle", f"gorenstein={prof['gorenstein']} level={prof['level']}"))
    return data, lines, 0


def cmd_singcat(pres, args):
    """orbit-category decomposition of the singularity category"""
    verdict = is_one_gorenstein(pres)
    if not verdict.verdict:
        f, p, _ = verdict.failing
        data = {"one_gorenstein": False,
                "witness": {"left_factor": str(p), "relation": str(f)}}
        return data, [f"not 1-Gorenstein; witness p={p}, relation {f}"], 1
    descriptors = singularity_decomposition(pres)
    data = {"one_gorenstein": True,
            "singularity": [{"type": "A", "rank": d.rank, "period": d.period}
                            for d in descriptors]}
    return data, [str(d) for d in descriptors] or ["trivial"], 0


def cmd_graded(pres, args):
    """graded singularity category and the type-A quiver"""
    data = graded_singularity_description(pres)
    lines = [_kv("singularity", data["graded_singularity"])]
    if "QB" in data:
        chains = data["QB"]["chains"]
        shown = "  ".join("[" + " -> ".join(c) + "]" for c in chains) or "(empty)"
        lines.append(_kv("Q^B", shown))
    omega = " ".join(f"A·({s['path']})({s['shift']})" for s in data["omega_T"])
    lines.append(_kv("omega T", omega or "(none)"))
    return data, lines, 0


def _parse_pairs(spec_text, pres):
    """The involution of ``--pairs``; any error in it is an input error."""
    pairs = []
    for chunk in spec_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ParseError(f"involution pair {chunk!r} is not of the form x:y")
        pairs.append((parts[0], parts[1]))
    try:
        return Involution.from_pairs(pres.quiver.vertices, pairs)
    except MonosingError as e:
        raise ParseError(str(e)) from e


def cmd_glue(pres, args):
    """glue vertices along an involution"""
    E = _parse_pairs(args.pairs, pres)
    if args.report:
        data = equivalence_report(pres, E).to_json()
        lines = [_kv(side, f"dim={info['dimension']} perfect={info['perfect_paths']} "
                           f"1-Gorenstein={info['one_gorenstein']} "
                           f"orbits={info['orbit_descriptors']} "
                           f"oracle={info['oracle_gorenstein']}")
                 for side, info in (("S", data["S"]), ("S_E", data["S_E"]))]
        lines.append(_kv("agreement", " ".join(f"{k}={v}" for k, v in data["agreement"].items())))
        return data, lines, 0
    glued = glue(pres, E)  # refuses an infinite gluing with its witness chain
    if args.bar:
        glued = bar_presentation(pres, E)
    return presentation_to_json(glued), presentation_to_text(glued).splitlines(), 0


def cmd_oracle(pres, args):
    """homological oracle checks"""
    window = args.window if args.window is not None else max(1, 2 * pres.dimension())
    if args.check == "gorenstein":
        data = injective_dimension_profile(pres).to_json()
        lines = [_kv("gorenstein", f"{data['gorenstein']} (level {data['level']})")]
        if args.trace:
            data["traces"] = resolution_trace_report(pres)
            for side, per_vertex in data["traces"].items():
                for v, tr in per_vertex.items():
                    lines.append(_kv(f"{side}@{v}",
                                     f"{tr['status']} pd={tr['pd']} "
                                     f"syzygy dims {tr['syzygy_dims']}"))
        return data, lines, 0
    if args.check == "classification":
        data = crosscheck_classification(pres)
        return data, [_kv("match", data["match"]), _kv("classes", data["homological_classes"])], 0
    ok = verify_omega_T_ext_vanishing(pres, window)
    return {"window": window, "vanishing": ok}, [_kv("vanishing", f"{ok} (window {window})")], \
        0 if ok else 1


# command -> handler; each handler's docstring is its help line
COMMANDS = {
    "info": cmd_info,
    "basis": cmd_basis,
    "perfect": cmd_perfect,
    "gproj": cmd_gproj,
    "gorenstein": cmd_gorenstein,
    "singcat": cmd_singcat,
    "graded": cmd_graded,
    "glue": cmd_glue,
    "oracle": cmd_oracle,
}


def _window(text):
    """The tilting check's shift window: a positive integer, since the check
    tests shifts 1 .. window and an empty range would pass vacuously."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monosing",
        description="Analyze monomial quiver algebras: Gorenstein projectives, "
                    "1-Gorenstein tests, singularity-category reports, gluing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("file", help="presentation file")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if name == "glue":
            p.add_argument("--pairs", required=True,
                           help='involution pairs, e.g. "3:6" or "1:2,3:4"')
            view = p.add_mutually_exclusive_group()
            view.add_argument("--report", action="store_true",
                              help="emit the singularity-equivalence report")
            view.add_argument("--bar", action="store_true",
                              help="emit the bar presentation instead of the glued one")
        if name == "oracle":
            p.add_argument("--check", required=True,
                           choices=["classification", "tilting", "gorenstein"])
            p.add_argument("--window", type=_window, default=None,
                           help="Ext window, at least 1 (default max(1, 2 * dim A))")
            p.add_argument("--trace", action="store_true",
                           help="include per-vertex resolution traces")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        data, lines, code = COMMANDS[args.command](parse_presentation_file(args.file), args)
    except (OSError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NotOneGorenstein, NotGorenstein, InfiniteDimensional) as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    except MonosingError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(dumps_json(data) if args.json else "\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
