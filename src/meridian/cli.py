"""Command-line front end: reproducible pipelines over the library modules.

Exit codes: 0 success, 1 mathematically negative answer (no epimorphism, no
candidate target, identity fails), 2 input error, 3 resource limit hit, 70
(EX_SOFTWARE) a fault of the program, reported with its traceback.
Output is deterministic: identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import braids, cosets, curves, orbifold
from .abelian import AbelianGroup, abelian_invariants, abelianization, quotient_invariants
from .charvar import FiniteTorusVariety, characteristic_variety
from .cosets import CosetOverflow, SearchCapExceeded, SubgroupSpec
from .fpgroups import (
    TIETZE_BUDGET,
    InputError,
    Presentation,
    Word,
    parse_presentation,
    parse_words,
    print_presentation,
    tietze_simplify,
)
from .nilpotent import TOP, lcs_quotients

OK, NEGATIVE, INPUT_ERROR, RESOURCE_LIMIT, INTERNAL_FAULT = 0, 1, 2, 3, 70

PRESENTATION_PRESETS = (
    "degtyarev-affine", "degtyarev-affine-xt", "degtyarev-projective",
    "p1-2-5-10", "p1-2-2-5-5", "c-2-3", "free2", "genus2",
)
MONODROMY_PRESETS = ("degtyarev-table1", "degtyarev-newbraid")


def preset_text(name: str, suffix: str) -> str:
    path = resources.files("meridian.presets") / f"{name}{suffix}"
    try:
        return path.read_text()
    except FileNotFoundError:
        raise KeyError(f"unknown preset {name!r}") from None


def load_monodromy(name_or_path: str) -> braids.MonodromyFile:
    if name_or_path in MONODROMY_PRESETS:
        return braids.parse_monodromy(preset_text(name_or_path, ".braid"))
    return braids.parse_monodromy(Path(name_or_path).read_text(encoding="utf-8"))


def infinity_meridian(mono: braids.MonodromyFile) -> Word:
    """The meridian of the line at infinity, whose relator turns the affine
    group into the projective one; a file without an 'infinity:' line is
    refused."""
    if mono.infinity is None:
        raise InputError("the monodromy has no 'infinity:' line, and the"
                         " projective group needs the infinity meridian")
    return mono.infinity


def load_presentation(args) -> Presentation:
    if getattr(args, "orbifold", None):
        sig = orbifold.parse_signature(args.orbifold)
        return orbifold.orbifold_presentation(sig)
    if getattr(args, "preset", None):
        return parse_presentation(preset_text(args.preset, ".grp"))
    if getattr(args, "file", None):
        return parse_presentation(Path(args.file).read_text(encoding="utf-8"))
    raise InputError("no presentation given: pass FILE, --preset or --orbifold")


def coset_cap(args) -> dict:
    """--max-cosets as todd_coxeter's keyword; absent, its default applies."""
    if args.max_cosets is None:
        return {}
    if args.max_cosets < 1:
        raise InputError("--max-cosets must be at least 1")
    return {"max_cosets": args.max_cosets}


def note_tietze_stop(result, what: str) -> None:
    """Say on stderr that a Tietze simplification stopped at its budget."""
    if not result.completed:
        print(f"note: Tietze simplification {what} after {result.steps} moves;"
              f" more moves were available", file=sys.stderr)


def _simplify(pres: Presentation, name: str) -> Presentation:
    """Tietze-simplify a presentation at the default budget, noting a stop."""
    result = tietze_simplify(pres)
    note_tietze_stop(result, f"of the {name} presentation stopped at its"
                             f" budget")
    return result.presentation


def _integer(text: str, source: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"expected an integer in {source!r}") from None


def parse_subgroup_spec(text: str, pres: Presentation) -> SubgroupSpec:
    """Subgroup specs: 'kernel Z/10 x->5 y->2' or 'gens x*y y^2'."""
    text = text.strip().rstrip(";")
    if text.startswith("kernel"):
        parts = text.split()
        moduli = []
        for token in parts[1:]:
            if "->" in token:
                break
            for factor in token.split("x"):
                if factor.startswith("Z/"):
                    moduli.append(_integer(factor[2:], token))
                elif factor:
                    raise InputError(f"bad kernel target component {factor!r}")
        if any(m < 1 for m in moduli):
            raise InputError("kernel target moduli must be at least 1")
        images = {name: (0,) * len(moduli) for name in pres.generators}
        for token in (t for t in parts[1:] if "->" in t):
            name, _, value = token.partition("->")
            if name not in pres.generators:
                raise InputError(f"unknown generator {name!r} in kernel spec")
            coords = tuple(_integer(v, token) for v in value.split(","))
            if len(coords) != len(moduli):
                raise InputError("kernel image has wrong number of coordinates")
            images[name] = coords
        return SubgroupSpec.kernel_of(
            moduli, [images[name] for name in pres.generators])
    if text.startswith("gens"):
        index = {name: i for i, name in enumerate(pres.generators, start=1)}
        body = text[len("gens"):].strip()
        return SubgroupSpec.from_words(parse_words(body, index))
    if text in ("trivial", ""):
        return SubgroupSpec.trivial()
    raise InputError(f"cannot parse subgroup spec {text!r}")


def parse_abelian(text: str) -> AbelianGroup:
    """Parse 'Z^2 x Z/3 x Z/6' style descriptions into invariant factors.

    The factors may be typed in any order and need not divide each other:
    'Z/2 x Z/2 x Z/3' is Z/2 x Z/6, and a factor Z/1 vanishes.
    """
    text = text.strip()
    if text in ("1", "0", "trivial"):
        return AbelianGroup(0, ())
    rank = 0
    torsion = []
    for part in text.split("x"):
        part = part.strip()
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += _integer(part[2:], text)
        elif part.startswith("Z/"):
            torsion.append(_integer(part[2:], text))
        else:
            raise InputError(f"cannot parse abelian group component {part!r}")
    if rank < 0 or any(d < 1 for d in torsion):
        raise InputError(f"abelian group {text!r}: ranks must be at least 0"
                         " and orders at least 1")
    k = len(torsion)
    finite = quotient_invariants(
        ([d if j == i else 0 for j in range(k)] for i, d in enumerate(torsion)), k)
    return AbelianGroup(rank, finite.torsion)


def emit(args, text_lines, doc):
    if args.json:
        doc = {"schema": 1, **doc}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# --- subcommands ---------------------------------------------------------------


def cmd_zvk(args) -> int:
    mono = load_monodromy(args.monodromy)
    pres = braids.zvk_presentation(mono.strands, mono.braids, args.reduction)
    if args.projective:
        pres = pres.with_relators([infinity_meridian(mono)])
    if args.simplify:
        pres = _simplify(pres, "zvk")
    emit(args, [print_presentation(pres).rstrip("\n")], {
        "command": "zvk",
        "generators": list(pres.generators),
        "relators": [pres.spell(r) for r in pres.relators],
    })
    return OK


def cmd_abelianize(args) -> int:
    pres = load_presentation(args)
    ab = abelianization(pres)
    emit(args, [str(ab)], {
        "command": "abelianize",
        "rank": ab.rank,
        "torsion": list(ab.torsion),
        "display": str(ab),
    })
    return OK


def _charvar_lines(variety):
    if isinstance(variety, FiniteTorusVariety):
        lines = [f"character torus: {variety.group} (all characters of"
                 f" order dividing {variety.modulus})"]
        strata = {}
        k = 1
        while True:
            stratum = variety.stratum(k)
            if not stratum:
                lines.append(f"V{k} = {{}}")
                strata[k] = []
                break
            lines.append(f"V{k} = " + variety.describe(k))
            strata[k] = [list(chi.exponents) for chi in stratum]
            k += 1
        return lines, {"mode": "finite-torus", "modulus": variety.modulus,
                       "strata": {str(k): v for k, v in strata.items()}}
    lines = ["character torus: C*"]
    doc = {}
    for k in range(1, len(variety.strata) + 1):
        s = variety.stratum(k)
        lines.append(f"V{k} = " + s.describe())
        doc[str(k)] = {
            "full": s.full,
            "cyclotomic": {str(n): m for n, m in sorted(s.cyclotomic.items())},
            "residual": str(s.residual),
            "includes_one": s.includes_one,
        }
        if s.is_empty():
            break
    return lines, {"mode": "rank-one", "strata": doc}


def cmd_charvar(args) -> int:
    variety = characteristic_variety(load_presentation(args))
    lines, doc = _charvar_lines(variety)
    emit(args, lines, {"command": "charvar", **doc})
    return OK


def cmd_order(args) -> int:
    pres = load_presentation(args)
    spec = parse_subgroup_spec(args.subgroup, pres) if args.subgroup \
        else SubgroupSpec.trivial()
    table = cosets.todd_coxeter(pres, spec, **coset_cap(args))
    label = "order" if spec.is_trivial_subgroup() else "index"
    emit(args, [f"{label} {table.index}"], {
        "command": "order", "kind": label, "value": table.index,
    })
    return OK


def cmd_center(args) -> int:
    pres = load_presentation(args)
    table = cosets.todd_coxeter(pres, **coset_cap(args))
    center, invariants = cosets.regular_rep_and_center(table)
    emit(args, [f"order {table.index}",
                f"center of order {len(center)}: {invariants}"], {
        "command": "center",
        "order": table.index,
        "center_order": len(center),
        "center": str(invariants),
    })
    return OK


def cmd_subgroup(args) -> int:
    if args.tietze_budget < 0:
        raise InputError("--tietze-budget must be at least 0")
    pres = load_presentation(args)
    spec = parse_subgroup_spec(args.spec, pres)
    table = cosets.todd_coxeter(pres, spec, **coset_cap(args))
    result = cosets.reidemeister_schreier(pres, table,
                                          tietze_budget=args.tietze_budget)
    note_tietze_stop(result, f"stopped at --tietze-budget {args.tietze_budget}")
    sub = result.presentation
    ab = abelian_invariants(sub)
    emit(args, [f"index {table.index}",
                print_presentation(sub).rstrip("\n"),
                f"abelianization {ab}"], {
        "command": "subgroup",
        "index": table.index,
        "generators": list(sub.generators),
        "relators": [sub.spell(r) for r in sub.relators],
        "abelianization": str(ab),
    })
    return OK


def cmd_lcs(args) -> int:
    graded = lcs_quotients(load_presentation(args), args.max_class)
    lines = []
    doc = {}
    for d in range(1, args.max_class + 1):
        g = graded.degree(d)
        lines.append(f"gamma_{d}/gamma_{d + 1} = {g}")
        doc[str(d)] = {"rank": g.rank, "torsion": list(g.torsion)}
    emit(args, lines, {"command": "lcs", "degrees": doc})
    return OK


def cmd_orbifold(args) -> int:
    sig = orbifold.parse_signature(args.orbifold)
    pres = orbifold.orbifold_presentation(sig)
    cls = orbifold.classify(sig)
    emit(args, [f"signature {sig}",
                f"classification: {cls}",
                print_presentation(pres).rstrip("\n")], {
        "command": "orbifold",
        "signature": str(sig),
        "kind": cls.kind,
        "chi": str(cls.chi),
        "order": cls.order,
        "generators": list(pres.generators),
        "relators": [pres.spell(r) for r in pres.relators],
    })
    return OK


def cmd_obstruct(args) -> int:
    if args.finite is not None:
        if args.finite < 1:
            raise InputError("--finite must be at least 1")
        ab = parse_abelian(args.ab or "1")
        report = orbifold.obstruct_finite(args.finite, ab)
        lines = [f"verdict: {report.verdict}"]
        for c in report.candidates:
            state = "survives" if c.survives else "excluded"
            lines.append(f"  ({','.join(map(str, c.signature.multiplicities))})"
                         f" order {c.order}: {state} -- {c.reason}")
        emit(args, lines, {
            "command": "obstruct", "mode": "finite",
            "verdict": report.verdict,
            "candidates": [
                {"multiplicities": list(c.signature.multiplicities),
                 "order": c.order, "survives": c.survives, "reason": c.reason}
                for c in report.candidates],
        })
        return OK if report.verdict == "candidates" else NEGATIVE
    pres = load_presentation(args)
    report = orbifold.obstruct_infinite_rank_one(
        pres, characteristic_variety(pres))
    lines = [f"verdict: {report.verdict}"]
    for comp in report.comparisons:
        state = "excluded" if comp.excluded else "not excluded"
        lines.append(f"  target {comp.target}: {state}")
        lines.extend(f"    {e}" for e in comp.evidence)
    emit(args, lines, {
        "command": "obstruct", "mode": "infinite-rank-one",
        "verdict": report.verdict,
        "targets": [
            {"signature": str(c.target), "excluded": c.excluded,
             "evidence": c.evidence} for c in report.comparisons],
    })
    return NEGATIVE if report.verdict == "no-surjection" else OK


def target_mult_table(name: str) -> cosets.MultTable:
    if name.startswith("cyclic-"):
        n = _integer(name[len("cyclic-"):], name)
        if n < 1:
            raise InputError(f"target {name!r}: cyclic-N needs N >= 1")
        return cosets.cyclic_table(n)
    if name.startswith("dihedral-"):
        n = _integer(name[len("dihedral-"):], name)
        if n < 2 or n % 2:
            raise InputError(
                f"target {name!r}: dihedral-N needs an even N >= 2")
        return cosets.dihedral_table(n)
    if name == "degtyarev-320":
        pres = parse_presentation(preset_text("degtyarev-projective", ".grp"))
        return cosets.regular_rep(cosets.todd_coxeter(pres))
    raise InputError(f"unknown target group {name!r}")


def cmd_homs(args) -> int:
    if args.limit < 0:
        raise InputError("--limit must be at least 0")
    if args.cap < 0:
        raise InputError("--cap must be at least 0")
    pres = load_presentation(args)
    table = target_mult_table(args.target)
    found = cosets.find_epimorphisms(pres, table, cap=args.cap)
    lines = [f"epimorphisms onto {args.target} (order {table.size}):"
             f" {len(found)}"]
    lines.extend("  " + " ".join(f"{g}->{e}" for g, e in
                                 zip(pres.generators, assign))
                 for assign in found[:args.limit])
    emit(args, lines, {
        "command": "homs", "target": args.target, "order": table.size,
        "count": len(found),
        "assignments": [list(a) for a in found[:args.limit]],
    })
    return OK if found else NEGATIVE


def cmd_verify_curves(args) -> int:
    presets = curves.curve_presets()
    ok1, residual = curves.verify_pencil_identity(presets)
    ok2 = curves.verify_parametrization(presets)
    report = curves.degtyarev_discriminant(presets)
    dual = curves.plucker_dual_degree(5, [(4, 2)] * 3)
    checks = [
        ("pencil identity quartic*tangent^2 = cubic^2 - 4*conic^3", ok1,
         "residual 0" if ok1 else f"residual {residual}"),
        ("parametrization lies on the quartic", ok2, ""),
        ("quintic discriminant = c * x * (x^2-11x-1)^5", report.proportional,
         f"c = {report.constant}" if report.proportional else
         f"got {report.discriminant}"),
        ("dual degree of the quintic is 5", dual == 5, f"got {dual}"),
    ]
    lines = []
    for label, ok, extra in checks:
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {label}" + (f" ({extra})" if extra else ""))
    emit(args, lines, {
        "command": "verify-curves",
        "checks": [{"label": label, "ok": ok, "detail": extra}
                   for label, ok, extra in checks],
    })
    return OK if all(ok for _, ok, _ in checks) else NEGATIVE


def cmd_pipeline(args) -> int:
    name = {"degtyarev": "degtyarev-newbraid"}.get(args.preset, args.preset)
    mono = load_monodromy(name)
    infinity = infinity_meridian(mono)
    lines = [f"monodromy: {name} ({len(mono.braids)} braids on"
             f" {mono.strands} strands)"]
    doc: dict = {"command": "pipeline", "preset": name}

    raw = braids.zvk_presentation(mono.strands, mono.braids, "block")
    lines.append(f"zvk (block reduction): {len(raw.generators)} generators,"
                 f" {len(raw.relators)} relators")
    simplified = _simplify(raw, "affine")
    lines.append("simplified: " +
                 print_presentation(simplified).rstrip("\n").replace("\n", "  "))
    variety = characteristic_variety(simplified)
    ab = variety.group
    lines.append(f"abelianization: {ab}")
    doc["abelianization"] = str(ab)

    cap = coset_cap(args)
    proj = raw.with_relators([infinity])
    table = cosets.todd_coxeter(_simplify(proj, "projective"), **cap)
    lines.append(f"projective quotient (infinity meridian added):"
                 f" order {table.index}")
    doc["projective_order"] = table.index

    merid = raw.with_relators([(1,) * 5])
    table5 = cosets.todd_coxeter(_simplify(merid, "meridian^5"), **cap)
    lines.append(f"meridian^5 quotient: order {table5.index}")
    doc["meridian5_order"] = table5.index

    center, invariants = cosets.regular_rep_and_center(table)
    lines.append(f"center: order {len(center)}, {invariants}")
    doc["center"] = str(invariants)

    proj_ab = abelian_invariants(proj)
    lines.append(f"projective abelianization: {proj_ab}")
    doc["projective_abelianization"] = str(proj_ab)

    cv_lines, cv_doc = _charvar_lines(variety)
    lines.extend(cv_lines)
    doc["charvar"] = cv_doc

    report = orbifold.obstruct_infinite_rank_one(simplified, variety)
    lines.append(f"infinite-orbifold obstruction: {report.verdict}")
    for comp in report.comparisons:
        state = "excluded" if comp.excluded else "not excluded"
        lines.append(f"  target {comp.target}: {state}")
    doc["obstruction"] = report.verdict

    fin = orbifold.obstruct_finite(table.index, proj_ab)
    lines.append(f"finite-orbifold obstruction for the projective group:"
                 f" {fin.verdict}")
    doc["finite_obstruction"] = fin.verdict

    emit(args, lines, doc)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meridian",
        description="Exact invariants of plane-curve complement groups:"
                    " presentations from braid monodromy, abelianizations,"
                    " characteristic varieties, finite quotients, subgroup"
                    " presentations and nilpotent quotients.")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON document instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("file", nargs="?", help="presentation file")
        source.add_argument("--preset", choices=PRESENTATION_PRESETS)
        source.add_argument("--orbifold", metavar="SIG",
                            help="orbifold signature, e.g. 'g=0 k=0 m=2,5,10'")

    p = sub.add_parser("zvk", help="presentation from braid monodromy")
    p.add_argument("monodromy", help="monodromy file or preset name"
                   f" ({', '.join(MONODROMY_PRESETS)})")
    p.add_argument("--reduction", choices=("none", "block"), default="block")
    p.add_argument("--projective", action="store_true",
                   help="append the infinity meridian relator")
    p.add_argument("--simplify", action="store_true")
    p.set_defaults(func=cmd_zvk)

    p = sub.add_parser("abelianize", help="abelian invariants")
    add_source(p)
    p.set_defaults(func=cmd_abelianize)

    p = sub.add_parser("charvar", help="characteristic varieties")
    add_source(p)
    p.set_defaults(func=cmd_charvar)

    p = sub.add_parser("order", help="group order / subgroup index")
    add_source(p)
    p.add_argument("--subgroup", help="'kernel Z/10 x->5 y->2' or 'gens w1 w2'")
    p.add_argument("--max-cosets", type=int)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("center", help="center of a finite quotient")
    add_source(p)
    p.add_argument("--max-cosets", type=int)
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("subgroup", help="Reidemeister-Schreier presentation")
    add_source(p)
    p.add_argument("--spec", required=True,
                   help="'kernel Z/10 x->5 y->2' or 'gens w1 w2'")
    p.add_argument("--max-cosets", type=int)
    p.add_argument("--tietze-budget", type=int, default=TIETZE_BUDGET)
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("lcs", help="lower central series quotients")
    add_source(p)
    p.add_argument("--class", dest="max_class", type=int, default=3,
                   choices=range(1, TOP + 1))
    p.set_defaults(func=cmd_lcs)

    p = sub.add_parser("orbifold", help="orbifold group and classification")
    p.add_argument("--orbifold", metavar="SIG", required=True)
    p.set_defaults(func=cmd_orbifold)

    p = sub.add_parser("obstruct", help="geometric surjection obstructions")
    add_source(p)
    p.add_argument("--finite", type=int, metavar="ORDER",
                   help="finite mode: group order")
    p.add_argument("--ab", help="finite mode: abelianization, e.g. 'Z/5'")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("homs", help="epimorphisms onto a finite group")
    add_source(p)
    p.add_argument("--target", required=True,
                   help="cyclic-N, dihedral-N (order N) or degtyarev-320")
    p.add_argument("--cap", type=int, default=10 ** 7)
    p.add_argument("--limit", type=int, default=20,
                   help="how many assignments to print")
    p.set_defaults(func=cmd_homs)

    p = sub.add_parser("verify-curves", help="check the curve identities")
    p.set_defaults(func=cmd_verify_curves)

    p = sub.add_parser("pipeline", help="full reproduction pipeline")
    p.add_argument("--preset", default="degtyarev",
                   help="monodromy preset or monodromy file (default degtyarev)")
    p.add_argument("--max-cosets", type=int)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CosetOverflow, SearchCapExceeded) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return RESOURCE_LIMIT
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception:
        import traceback    # only a crash needs it; start-up stays lean
        traceback.print_exc()
        return INTERNAL_FAULT


if __name__ == "__main__":
    sys.exit(main())
