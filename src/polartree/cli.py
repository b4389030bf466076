"""Command-line interface: the package's only I/O surface.

Commands: roots, tree, analyze, verify, factor, compare, reduce, generic.
Output is a deterministic report (human text by default, one JSON object
with --json); diagnostics go to stderr.  Exit codes: 0 success/pass,
1 verification failure, 2 input error, 3 field or truncation limitation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import InputError, LimitationError, NoCover, PolartreeError
from .pipeline import Options, Run, analyze_pair, render_run, run_document
from .pipeline import _germ_stage, _in_field
from .treemodel import cover_of, render_tree
from .baranalysis import analyze_all
from .factorrep import generic_coordinates, meromorphic_reduce
from .fixtures import get_fixture


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    ap = argparse.ArgumentParser(
        prog="polartree",
        description="Tree models of plane-curve pairs and their polar roots",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {
        "roots": "expand the two germs' branch series",
        "tree": "build and draw the contact-order tree",
        "analyze": "per-bar orders, determinants, and climb predictions",
        "verify": "predictions against the expanded Jacobian (exit 1 on mismatch)",
        "factor": "polar-root groups, truncations, intersection numbers",
        "compare": "equivalence of two pairs",
        "reduce": "clear Laurent tails and analyze the reduced pair",
        "generic": "shear to generic coordinates and count generic polar roots",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--f", help="expression for the first germ")
        p.add_argument("--g", help="expression for the second germ")
        p.add_argument("--fixture", help="named fixture instead of --f/--g")
        if name == "compare":
            p.add_argument("--f2", help="expression for the second pair's f")
            p.add_argument("--g2", help="expression for the second pair's g")
            p.add_argument("--fixture2", help="fixture for the second pair")
        if name == "reduce":
            p.add_argument("--s", default="auto",
                           help="substitution exponent (integer or 'auto')")
        if name == "generic":
            p.add_argument("--shift", help="shear constant (rational; default auto")
        p.add_argument("--field", type=int, help="cyclotomic field conductor")
        if name != "generic":  # generic expands nothing
            p.add_argument("--trunc", help="truncation depth (rational)")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the report as JSON")
    return ap, sub.choices


def _join_dash_values(commands: dict, argv: list[str]) -> list[str]:
    """``--f -x+y`` as ``--f=-x+y``: argparse takes -x+y or -1/2 for an option,
    so a token that no option of the command names joins the flag before it."""
    known = commands[argv[0]]._option_string_actions if argv[:1] and argv[0] in commands else {}
    out = argv[:1]
    for tok in argv[1:]:
        flag = known.get(out[-1])
        if flag and flag.nargs is None and tok.startswith("-") and tok not in known:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _inputs(args, which: int = 1) -> tuple[str, str, int | None]:
    if which == 1:
        f, g, fixture = args.f, args.g, args.fixture
    else:
        f, g, fixture = args.f2, args.g2, args.fixture2
    if fixture:
        if f or g:
            raise InputError("give either --fixture or --f/--g, not both")
        try:
            fx = get_fixture(fixture)
        except KeyError as e:
            raise InputError(str(e))
        return fx.f, fx.g, fx.shift_s
    if not f or not g:
        raise InputError("both --f and --g (or --fixture) are required")
    return f, g, None


def _number(text: str, kind, flag: str):
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad {flag} value {text!r}") from None


def _options(args) -> Options:
    trunc = _number(args.trunc, Fraction, "--trunc") if args.trunc else None
    return Options(field=args.field, trunc=trunc)


def _emit(args, document: dict, human: str) -> None:
    if args.as_json:
        sys.stdout.write(json.dumps(document, indent=1, sort_keys=True) + "\n")
    else:
        sys.stdout.write(human)
        if not human.endswith("\n"):
            sys.stdout.write("\n")


def _full_run(args) -> Run:
    f, g, _s = _inputs(args)
    return analyze_pair(f, g, _options(args))


def _cmd_roots(args) -> int:
    run = _full_run(args)
    doc = {
        "format_version": 1,
        "field_conductor": run.field.conductor,
        "roots": run_document(run)["roots"],
        "E1": run.tree.E1,
        "E2": run.tree.E2,
    }
    lines = [f"roots of f ({len(run.f_expansion.roots)}; y-content {run.tree.E1}):"]
    lines += [f"  {r.series}" + (f"  x{r.multiplicity}" if r.multiplicity > 1 else "")
              for r in run.f_expansion.roots]
    lines.append(f"roots of g ({len(run.g_expansion.roots)}; y-content {run.tree.E2}):")
    lines += [f"  {r.series}" + (f"  x{r.multiplicity}" if r.multiplicity > 1 else "")
              for r in run.g_expansion.roots]
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def _cmd_tree(args) -> int:
    run = _full_run(args)
    doc = run_document(run)
    _emit(args, {k: doc[k] for k in
                 ("format_version", "field_conductor", "tree", "bars",
                  "conjugacy_classes")},
          render_tree(run.tree, run.analyses))
    return 0


def _cmd_analyze(args) -> int:
    run = _full_run(args)
    doc = run_document(run)
    _emit(args, doc, render_run(run))
    return 0


def _cmd_verify(args) -> int:
    run = _full_run(args)
    doc = run_document(run)
    _emit(args, doc, render_run(run))
    return 0 if run.verification.passed else 1


def _cmd_factor(args) -> int:
    run = _full_run(args)
    doc = run_document(run)
    lines = [f"jacobian factor groups (x-order {run.factors.x_order}, "
             f"y-content {run.factors.y_content}):"]
    for rep in run.factors.classes:
        if rep.collinear:
            lines.append(f"  {rep.class_id} {list(rep.bar_ids)} h={rep.height}: collinear class")
            continue
        lines.append(
            f"  {rep.class_id} {list(rep.bar_ids)} h={rep.height}: "
            f"leave-group order {rep.p_order}, truncation {rep.p_truncation}, "
            f"bounded-group order {rep.q_order}"
        )
        lines.append(
            f"      intersections: f {rep.i_f_formula} (direct {rep.i_f_direct}), "
            f"g {rep.i_g_formula} (direct {rep.i_g_direct}), both {rep.i_c_formula}"
        )
    lines.append(f"  ground group order {run.factors.q_ground_order}")
    lines.append(f"  partition complete: {run.factors.complete}")
    _emit(args, doc["factors"] | {"format_version": 1}, "\n".join(lines) + "\n")
    return 0


def _cmd_compare(args) -> int:
    from .factorrep import compare_pairs

    f1, g1, _ = _inputs(args, 1)
    f2, g2, _ = _inputs(args, 2)
    run1 = analyze_pair(f1, g1, _options(args))
    run2 = analyze_pair(f2, g2, _options(args))
    verdict = compare_pairs((run1.tree, run1.analyses), (run2.tree, run2.analyses))
    doc = {
        "format_version": 1,
        "level": verdict.level,
        "witness": verdict.witness,
        "leave_heights": {
            "first": {k: [[str(h), c] for h, c in v]
                      for k, v in run1.factors.leave_data.items()},
            "second": {k: [[str(h), c] for h, c in v]
                       for k, v in run2.factors.leave_data.items()},
        },
    }
    human = f"verdict: {verdict.level}\n"
    if verdict.witness:
        human += f"witness: {verdict.witness}\n"
    _emit(args, doc, human)
    return 0


def _cmd_reduce(args) -> int:
    f_text, g_text, fixture_s = _inputs(args)
    s_arg = getattr(args, "s", "auto")
    if s_arg == "auto" and fixture_s is not None:
        s_arg = fixture_s
    s = s_arg if s_arg == "auto" else _number(s_arg, int, "--s")
    opts = _options(args)

    def attempt(F, G):
        red = meromorphic_reduce(F, G, s)
        return red, _germ_stage(red.f_poly, red.g_poly, opts.trunc, red.E1, red.E2)[2]

    red, tree = _in_field(opts, f_text, g_text, attempt, laurent=True)
    analyses = analyze_all(tree)
    probes = [(bar, c) for bar in tree.finite_bars() if not analyses[bar.id].collinear
              for c in analyses[bar.id].collinear_points]
    # ground bar: its single growth point in collinear mode
    if analyses[tree.ground_id].collinear:
        probes.append((tree.ground, tree.field.zero))
    no_cover = []
    for bar, c in probes:
        try:
            cover_of(tree, analyses, bar, c)
        except NoCover:
            no_cover.append({"bar": bar.id, "point": str(c)})
    doc = {
        "format_version": 1,
        "s": red.s,
        "reduced_f": str(red.f_poly),
        "reduced_g": str(red.g_poly),
        "E1": red.E1,
        "E2": red.E2,
        "jacobian_identity": True,
        "bars": [
            {
                "id": b.id,
                "height": str(b.height),
                "nu_f": str(analyses[b.id].nu_f),
                "nu_g": str(analyses[b.id].nu_g),
                "collinear": analyses[b.id].collinear,
            }
            for b in sorted(tree.finite_bars(), key=lambda b: (b.height, b.id))
        ],
        "collinear_without_cover": no_cover,
    }
    lines = [
        f"substitution exponent s = {red.s}",
        f"reduced f = {red.f_poly}   (prefactor exponent {red.E1})",
        f"reduced g = {red.g_poly}   (prefactor exponent {red.E2})",
        "jacobian correspondence identity: holds",
        "",
        render_tree(tree, analyses),
    ]
    for b in sorted(tree.finite_bars(), key=lambda b: (b.height, b.id)):
        ana = analyses[b.id]
        lines.append(f"  {b.id}: h={b.height} nu_f={ana.nu_f} nu_g={ana.nu_g}"
                     + (" collinear" if ana.collinear else ""))
    if no_cover:
        lines.append("collinear points without a cover: "
                     + ", ".join(f"{e['bar']}@{e['point']}" for e in no_cover))
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def _cmd_generic(args) -> int:
    f_text, g_text, _s = _inputs(args)
    shift = "auto" if args.shift in (None, "auto") else _number(args.shift, Fraction, "--shift")
    fs, gs, c_used, m = _in_field(Options(field=args.field), f_text, g_text,
                                  lambda f, g: generic_coordinates(f, g, shift))
    doc = {
        "format_version": 1,
        "shift": str(c_used),
        "generic_polar_count": m,
        "sheared_f": str(fs),
        "sheared_g": str(gs),
    }
    human = (f"shift c = {c_used}\n"
             f"generic polar count m = {m}\n"
             f"sheared f = {fs}\n"
             f"sheared g = {gs}\n")
    _emit(args, doc, human)
    return 0


_DISPATCH = {
    "roots": _cmd_roots,
    "tree": _cmd_tree,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "factor": _cmd_factor,
    "compare": _cmd_compare,
    "reduce": _cmd_reduce,
    "generic": _cmd_generic,
}


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    ap, commands = _build_parser()
    args = ap.parse_args(_join_dash_values(commands, sys.argv[1:] if argv is None else list(argv)))
    try:
        return _DISPATCH[args.command](args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LimitationError as e:
        print(f"limitation: {e}", file=sys.stderr)
        return 3
    except PolartreeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
