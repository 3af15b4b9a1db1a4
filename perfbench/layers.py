"""The traced layers: which public functions are wrapped, what each span
counts, and how spans become the per-layer metrics.

A span is ``[name, start, end, parent, counters]``: ``name`` is
``module.function``, ``start``/``end`` are ``time.perf_counter`` readings in
the traced process, ``parent`` is the index of the enclosing traced span (-1
at top level) and ``counters`` holds numbers read from the call's arguments
and return value.  Metric names are ``<module>.<function>.<stat>``.
"""

from __future__ import annotations

import statistics


def _length(pres) -> int:
    return sum(len(r) for r in pres.relators)


def _tietze(args, kwargs, result):
    pres = args[0]
    out = result.presentation
    return {"steps": result.steps, "incomplete": int(not result.completed),
            "len_in": _length(pres), "len_out": _length(out),
            "gens_removed": len(pres.generators) - len(out.generators)}


def _smith(args, kwargs, result):
    m = args[0]
    return {"cells": len(m) * (len(m[0]) if m else 0)}


# module -> function -> counter extractor (None: time and calls only)
TRACED = {
    "exactalg": {
        "cyclotomic_polynomial": lambda a, k, r: {"n": a[0]},
        "cyclotomic_factors": lambda a, k, r: {"degree_in": a[0].degree},
        "poly_gcd": None,
        "matrix_rank": None,
    },
    "fpgroups": {
        "tietze_simplify": _tietze,
        "parse_presentation": None,
    },
    "abelian": {
        "smith_normal_form": _smith,
        "abelianization": None,
    },
    "nilpotent": {
        "lcs_quotients": None,
    },
    "cosets": {
        "todd_coxeter": lambda a, k, r: {"index_sum": r.index},
        "regular_rep_and_center": None,
        "schreier_rewrite": lambda a, k, r: {"gens_out": len(r[0].generators)},
        "find_epimorphisms": None,
    },
    "charvar": {
        "charvar_rank_one": None,
        "charvar_finite_torus": None,
        "fox_matrix": None,
    },
    "orbifold": {
        "obstruct_infinite_rank_one": None,
        "obstruct_finite": None,
    },
    "braids": {
        "parse_monodromy": None,
        "zvk_presentation": None,
    },
    "curves": {
        "verify_pencil_identity": None,
        "verify_parametrization": None,
        "degtyarev_discriminant": None,
    },
}

# (metric name, unit); the order is the order of the report.
METRICS = [
    ("exactalg.cyclotomic_polynomial.total_s", "s"),
    ("exactalg.cyclotomic_polynomial.distinct_n", "count"),
    ("exactalg.cyclotomic_factors.calls", "count"),
    ("exactalg.cyclotomic_factors.self_s", "s"),
    ("exactalg.cyclotomic_factors.degree_in", "count"),
    ("exactalg.cyclotomic_factors.phi_trials", "count"),
    ("exactalg.poly_gcd.self_s", "s"),
    ("exactalg.matrix_rank.self_s", "s"),
    ("fpgroups.tietze_simplify.calls", "count"),
    ("fpgroups.tietze_simplify.self_s", "s"),
    ("fpgroups.tietze_simplify.steps", "count"),
    ("fpgroups.tietze_simplify.incomplete", "count"),
    ("fpgroups.tietze_simplify.len_in", "count"),
    ("fpgroups.tietze_simplify.len_out", "count"),
    ("fpgroups.tietze_simplify.gens_removed", "count"),
    ("fpgroups.parse_presentation.total_s", "s"),
    ("abelian.smith_normal_form.calls", "count"),
    ("abelian.smith_normal_form.self_s", "s"),
    ("abelian.smith_normal_form.cells", "count"),
    ("abelian.abelianization.calls", "count"),
    ("abelian.abelianization.total_s", "s"),
    ("nilpotent.lcs_quotients.calls", "count"),
    ("nilpotent.lcs_quotients.self_s", "s"),
    ("cosets.todd_coxeter.calls", "count"),
    ("cosets.todd_coxeter.self_s", "s"),
    ("cosets.todd_coxeter.index_sum", "count"),
    ("cosets.regular_rep_and_center.self_s", "s"),
    ("cosets.schreier_rewrite.self_s", "s"),
    ("cosets.schreier_rewrite.gens_out", "count"),
    ("cosets.find_epimorphisms.self_s", "s"),
    ("charvar.charvar_rank_one.calls", "count"),
    ("charvar.charvar_rank_one.self_s", "s"),
    ("charvar.charvar_finite_torus.calls", "count"),
    ("charvar.charvar_finite_torus.self_s", "s"),
    ("charvar.fox_matrix.self_s", "s"),
    ("orbifold.obstruct_infinite_rank_one.total_s", "s"),
    ("orbifold.obstruct_infinite_rank_one.self_s", "s"),
    ("orbifold.obstruct_finite.total_s", "s"),
    ("braids.parse_monodromy.total_s", "s"),
    ("braids.zvk_presentation.calls", "count"),
    ("braids.zvk_presentation.total_s", "s"),
    ("curves.verify_pencil_identity.total_s", "s"),
    ("curves.verify_parametrization.total_s", "s"),
    ("curves.degtyarev_discriminant.total_s", "s"),
    ("cli.other_s", "s"),
    ("trace.overhead_s", "s"),
]


def process_stats(spans, process_wall: float) -> dict:
    """Totals of one traced process, keyed by ``module.function.stat``.

    ``process_wall`` is the wall of the process less the tracer's own time;
    what the top-level spans leave of it is ``cli.other_s``.

    ``total_s`` counts only the outermost span of a recursive function;
    ``self_s`` is each span minus its direct children, so self times add up
    to the traced time without overlap.
    """
    stats: dict[str, float] = {}

    def add(key, value):
        stats[key] = stats.get(key, 0) + value

    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    top_level = 0.0
    distinct: dict[str, set] = {}
    for i, (name, start, end, parent, counters) in enumerate(spans):
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", end - start - child_time[i])
        ancestor, nested = parent, False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            add(f"{name}.total_s", end - start)
        if parent < 0:
            top_level += end - start
        for key, value in counters.items():
            if key == "n":
                distinct.setdefault(name, set()).add(value)
            else:
                add(f"{name}.{key}", value)
        if name == "exactalg.cyclotomic_polynomial" and parent >= 0 \
                and spans[parent][0] == "exactalg.cyclotomic_factors":
            add("exactalg.cyclotomic_factors.phi_trials", 1)
    for name, values in distinct.items():
        add(f"{name}.distinct_n", len(values))
    add("cli.other_s", process_wall - top_level)
    return stats


def pass_metrics(process_stats_list) -> dict:
    """Per-layer metrics of one pass: the sum over its processes."""
    total: dict[str, float] = {}
    for stats in process_stats_list:
        for key, value in stats.items():
            total[key] = total.get(key, 0) + value
    return total


def report(passes, overhead_s: float) -> dict:
    """The per-layer metrics: medians over the traced passes."""
    out = {}
    for name, unit in METRICS:
        if name == "trace.overhead_s":
            value = overhead_s
        else:
            value = statistics.median(p.get(name, 0) for p in passes)
        out[name] = {"value": value, "unit": unit}
    return out


def module_self_times(pass_totals: dict) -> dict:
    """Self seconds of each traced module, summed over its functions."""
    out = {module: 0.0 for module in TRACED}
    for key, value in pass_totals.items():
        module = key.split(".")[0]
        if key.endswith(".self_s") and module in out:
            out[module] += value
    return out
