"""Command line front end.

Every command reads a substitution from a JSON file of the form

    {"alphabet": ["0", "1"], "rules": {"0": "01", "1": "0"}}

and writes a JSON report to stdout (or ``--out FILE``).  Output is
deterministic: keys are sorted and all numeric invariants are exact
(fractions and integer polynomial data as strings, floats only in
clearly labeled ``approx`` fields).

Exit codes: 0 on success, 1 for invalid input, 2 when a configured
resource budget is exhausted, 3 when an internal cross-check fails.

Each command imports the layers it runs inside its handler, so a cold
process loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import InternalCheckError, ResourceLimitError, ValidationError

if TYPE_CHECKING:
    from .flows import FlowCode
    from .mcg import Surd
    from .numberfield import FieldElement
    from .substitution import Substitution
    from .words import SlidingBlockCode


def _field_element_json(x: FieldElement) -> dict:
    from fractions import Fraction

    approx = x.field.approx(x, Fraction(1, 10**12))
    return {
        "coeffs": [str(c) for c in x.coeffs],
        "approx": f"{float(approx):.12g}",
    }


def _load_sub(path: str) -> Substitution:
    from .substitution import Substitution

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("substitution file must hold a JSON object")
    return Substitution.from_json_dict(data)


def _emit(payload, out_path: str | None) -> None:
    if isinstance(payload, str):
        text = payload if payload.endswith("\n") else payload + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _join(sub: Substitution, idx: tuple[int, ...]) -> str:
    symbols = [sub.alphabet.symbols[i] for i in idx]
    if all(len(s) == 1 for s in symbols):
        return "".join(symbols)
    return "|".join(symbols)


# -- analyze -----------------------------------------------------------------


def _cmd_analyze(args) -> None:
    from .mcg import assemble_mcg
    from .words import CHECK_DEPTH

    sub = _load_sub(args.file)
    report = assemble_mcg(sub, aut_radius=args.aut_radius)
    payload = report.to_json_dict()
    payload["options"] = {"aut_radius": args.aut_radius, "aut_depth": CHECK_DEPTH}
    _emit(payload, args.out)


# -- language / complexity ---------------------------------------------------


def _cmd_language(args) -> None:
    if args.n < 1:
        raise ValidationError("flowmcg language: argument --n: must be >= 1")
    from .substitution import is_primitive

    sub = _load_sub(args.file)
    if not is_primitive(sub):
        raise ValidationError("language expects a primitive substitution")
    table = sub.language(args.n)
    blocks = sorted(table.blocks_of(args.n))
    _emit(
        {
            "n": args.n,
            "count": len(blocks),
            "blocks": [_join(sub, b) for b in blocks],
        },
        args.out,
    )


def _cmd_complexity(args) -> None:
    from .substitution import complexity_profile

    if args.n_max < 0:
        raise ValidationError("n_max must be >= 0")
    sub = _load_sub(args.file)
    profile = complexity_profile(sub, args.n_max) if args.n_max >= 1 else ()
    values = {str(n): p for n, p in enumerate(profile, start=1)}
    _emit({"n_max": args.n_max, "complexity": values}, args.out)


# -- pf / cr / coinvariants --------------------------------------------------


def _cmd_pf(args) -> None:
    from .numberfield import algebraic_to_json
    from .pf import pf_data
    from .substitution import incidence_matrix

    sub = _load_sub(args.file)
    data = pf_data(sub)
    _emit(
        {
            "matrix": [list(row) for row in incidence_matrix(sub)],
            "lambda": algebraic_to_json(data.lam),
            "charpoly_factors": [
                {"coeffs": list(f), "multiplicity": m}
                for f, m in data.charpoly_factors
            ],
            "frequencies": {
                sub.alphabet.symbols[i]: _field_element_json(v)
                for i, v in enumerate(data.left)
            },
            "field_degree": data.field.degree,
        },
        args.out,
    )


def _cmd_cr(args) -> None:
    from .pf import cr_check, is_pisot

    sub = _load_sub(args.file)
    verdict = cr_check(sub)
    _emit(
        {
            "verdict": verdict.verdict,
            "balanced": verdict.is_balanced,
            "alpha": None if verdict.alpha is None else _field_element_json(verdict.alpha),
            "pisot": is_pisot(sub),
            "reasons": list(verdict.reasons),
        },
        args.out,
    )


def _cmd_coinvariants(args) -> None:
    from .coinvariants import coinvariants_report

    sub = _load_sub(args.file)
    report = coinvariants_report(sub)
    _emit(
        {
            "free_rank": report.free_rank,
            "invariant_factors": list(report.invariant_factors),
            "trace_image": report.trace_image_description,
            "infinitesimal_rank": report.infinitesimal_rank,
            "caveats": list(report.caveats),
        },
        args.out,
    )


# -- asymptotics -------------------------------------------------------------


def _cmd_asymptotics(args) -> None:
    from .asymptotics import asymptotic_classes, classes_to_dot

    sub = _load_sub(args.file)
    classes = asymptotic_classes(sub)
    if args.dot:
        _emit(classes_to_dot(classes), args.out)
        return
    payload = {
        "power": classes.power,
        "count": classes.count,
        "classes": [
            [{"left": sub.alphabet.symbols[b], "right": sub.alphabet.symbols[a]} for b, a in cls]
            for cls in classes.classes
        ],
    }
    _emit(payload, args.out)


# -- automorphisms -----------------------------------------------------------


def _code_rule_json(sub: Substitution, code: SlidingBlockCode) -> dict:
    return {
        _join(sub, window): sub.alphabet.symbols[out]
        for window, out in sorted(code.rule.items())
    }


def _cmd_aut(args) -> None:
    from .automorphisms import search_automorphisms, shift_quotient

    sub = _load_sub(args.file)
    report = search_automorphisms(sub, radius=args.radius)
    quotient = shift_quotient(report)
    _emit(
        {
            "radius": args.radius,
            "codes_found": len(report.codes),
            "elements_mod_shift": len(report.elements),
            "elements": [
                {
                    "radius": code.radius,
                    "rule": _code_rule_json(sub, code),
                }
                for code in report.elements
            ],
            "quotient": {
                "order": quotient.order,
                "name": quotient.name,
                "element_orders": list(quotient.element_orders),
            },
            "certificate": report.certificate,
        },
        args.out,
    )


# -- induced return systems --------------------------------------------------


def _cmd_induce(args) -> None:
    from .flows import induce

    sub = _load_sub(args.file)
    section = args.word if args.word else None
    system = induce(sub, section)
    _emit(
        {
            "section": "" if system.base_word is None else _join(sub, system.base_word),
            "returns": [w.text for w in system.return_words],
            "return_times": list(system.return_times),
            "entry_measures": [_field_element_json(w) for w in system.weights],
            "base_measure": _field_element_json(system.base_measure),
            "kac_identity": "sum(entry_measure * return_time) == 1 (exact)",
        },
        args.out,
    )


# -- flow codes --------------------------------------------------------------


def _build_flow_code(sub: Substitution, kind: str, map_json: str | None) -> FlowCode:
    from .flows import automorphism_code, identity_code, substitution_code
    from .words import SlidingBlockCode

    if kind == "identity":
        return identity_code(sub)
    if kind == "tilde":
        return substitution_code(sub)
    if kind == "automorphism":
        if map_json is None:
            raise ValidationError("automorphism kind needs --map JSON, e.g. '{\"0\": \"1\", \"1\": \"0\"}'")
        try:
            mapping = json.loads(map_json)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--map is not valid JSON: {exc}") from exc
        if not isinstance(mapping, dict):
            raise ValidationError("--map must be a JSON object of symbol pairs")
        code = SlidingBlockCode.from_symbol_map(sub.alphabet, sub.alphabet, mapping)
        return automorphism_code(sub, code)
    raise ValidationError(f"unknown flow code kind {kind!r}")


def _r_mu_json(fc: FlowCode) -> dict:
    from .flows import lambda_relation_search, r_mu

    value = r_mu(fc)
    relation = lambda_relation_search(value)
    return {
        "r_mu": _field_element_json(value),
        "lambda_relation": None if relation is None else {"p": relation[0], "q": relation[1]},
    }


def _flow_code_json(fc: FlowCode) -> dict:
    return {
        "kind": fc.kind,
        "radius": fc.conjugacy.radius,
        "verified_depth": fc.verified_depth,
        "source_section": "" if fc.source.base_word is None else _join(fc.sub, fc.source.base_word),
        "target_section": "" if fc.target.base_word is None else _join(fc.sub, fc.target.base_word),
        **_r_mu_json(fc),
    }


def _cmd_flowcode_make(args) -> None:
    sub = _load_sub(args.file)
    fc = _build_flow_code(sub, args.kind, args.map)
    _emit(_flow_code_json(fc), args.out)


def _cmd_flowcode_compose(args) -> None:
    from .flows import compose_flow_codes

    sub = _load_sub(args.file)
    first = _build_flow_code(sub, args.first, args.first_map)
    second = _build_flow_code(sub, args.second, args.second_map)
    fc = compose_flow_codes(first, second)
    payload = _flow_code_json(fc)
    payload["factors"] = [args.first, args.second]
    _emit(payload, args.out)


def _cmd_flowcode_restrict(args) -> None:
    from .flows import restrict_flow_code

    sub = _load_sub(args.file)
    fc = _build_flow_code(sub, args.kind, args.map)
    restricted = restrict_flow_code(fc, args.word)
    payload = _flow_code_json(restricted)
    payload["restricted_to"] = args.word
    _emit(payload, args.out)


def _cmd_flowcode_slopes(args) -> None:
    from fractions import Fraction

    from .flows import cocycle_slopes

    sub = _load_sub(args.file)
    fc = _build_flow_code(sub, args.kind, args.map)
    profile = cocycle_slopes(fc, k_range=range(0, args.k_max))
    slopes = list(profile.slopes)
    mean = sum((s for _, s in slopes), Fraction(0)) / len(slopes)
    _emit(
        {
            "k_max": args.k_max,
            "slopes": [{"k": k, "slope": str(s)} for k, s in slopes],
            "mean": str(mean),
            "mean_approx": f"{float(mean):.12g}",
        },
        args.out,
    )


def _cmd_flowcode_rmu(args) -> None:
    sub = _load_sub(args.file)
    fc = _build_flow_code(sub, args.kind, args.map)
    _emit({"kind": args.kind, **_r_mu_json(fc)}, args.out)


# -- classified families -----------------------------------------------------


def _parse_surd(text: str) -> Surd:
    from .mcg import Surd

    raw = text.strip()
    if raw.startswith("(") and raw.endswith(")"):
        raw = raw[1:-1]
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 4:
        raise ValidationError("--surd needs four integers: (b, a, D, c) for (b*sqrt(D) + a)/c")
    try:
        b, a, d, c = (int(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"--surd entries must be integers: {exc}") from exc
    return Surd(a=a, b=b, d=d, c=c)


def _cmd_sturmian(args) -> None:
    from .mcg import NON_QUADRATIC, sturmian_classify

    if args.non_quadratic:
        beta = NON_QUADRATIC
        slope = None
    else:
        if args.surd is None:
            raise ValidationError("give --surd '(b, a, D, c)' or --non-quadratic")
        surd = _parse_surd(args.surd)
        beta = surd
        slope = f"({surd.b}*sqrt({surd.d}) + {surd.a})/{surd.c}"
    verdict = sturmian_classify(beta)
    _emit(
        {
            "slope": slope,
            "verdict": verdict.kind,
            "reason": verdict.reason,
            "minpoly": None if verdict.minpoly is None else list(verdict.minpoly),
            "conjugate_in_unit_interval": verdict.conjugate_in_unit_interval,
        },
        args.out,
    )


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"{flag} must be a comma separated integer list: {exc}") from exc


def _cmd_odometer(args) -> None:
    from .mcg import odometer_mcg

    preperiod = _parse_int_list(args.preperiod, "--preperiod")
    period = _parse_int_list(args.period, "--period")
    report = odometer_mcg(preperiod, period)
    _emit(
        {
            "preperiod": list(report.preperiod),
            "period": list(report.period),
            "coinvariants": report.coinvariants,
            "unit_rank": report.unit_rank,
            "presentation": report.presentation,
        },
        args.out,
    )


def _cmd_hierarchical(args) -> None:
    from .mcg import hierarchical_subshift, stage_measure_tables

    n_values = _parse_int_list(args.n, "--n")
    spec = hierarchical_subshift(n_values)
    payload = {
        "n_values": list(spec.n_values),
        "words0": list(spec.words0),
        "words1": list(spec.words1),
        "zero_frequencies": [str(f) for f in spec.freqs0],
        "frequency_bounds": [str(b) for b in spec.bounds],
    }
    if args.tables is not None:
        table0, table1 = stage_measure_tables(spec, args.tables)
        from .mcg import action_on_measures
        from .words import Alphabet, SlidingBlockCode

        alph = Alphabet.of(["0", "1"])
        swap = SlidingBlockCode.from_symbol_map(alph, alph, {"0": "1", "1": "0"})

        def _as_text(table: dict) -> dict:
            return {
                "".join(alph.symbols[i] for i in k): str(v) for k, v in sorted(table.items())
            }

        action = action_on_measures(swap, (table0, table1))
        payload["tables"] = {
            "block_length": args.tables,
            "word0": _as_text(table0),
            "word1": _as_text(table1),
            "involution_action": list(action.permutation),
            "separation_margin": str(action.margin),
        }
    _emit(payload, args.out)


def _cmd_checklist(args) -> None:
    from .mcg import hierarchical_subshift, virtually_abelian_report

    if args.hierarchical is not None:
        target = hierarchical_subshift(_parse_int_list(args.hierarchical, "--hierarchical"))
    elif args.file is not None:
        target = _load_sub(args.file)
    else:
        raise ValidationError("give a substitution file or --hierarchical N1,N2,...")
    report = virtually_abelian_report(target, n_max=args.n_max)
    _emit(
        {
            "window": list(report.window),
            "min_complexity_ratio": str(report.min_ratio),
            "ergodic_measure_bound": report.ergodic_measure_bound,
            "asymptotic_class_count": report.asymptotic_class_count,
            "infinitesimal_rank": report.infinitesimal_rank,
            "verdict": report.verdict,
            "notes": list(report.notes),
        },
        args.out,
    )


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as invalid input (exit 1), not with argparse's
    exit 2, which the exit-code contract reserves for exhausted budgets."""

    def error(self, message: str):
        raise ValidationError(f"{self.prog}: {message}")


def _add_sub_file(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="substitution JSON file")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")


def _add_flow_code_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kind",
        choices=("identity", "tilde", "automorphism"),
        default="tilde",
        help="which flow code to build (tilde is the substitution's own code)",
    )
    parser.add_argument("--map", default=None, help="symbol map JSON for --kind automorphism")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flowmcg",
        description="Exact flow invariants of minimal substitution subshifts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("analyze", help="full report: expansion constant, balance, symmetry structure")
    _add_sub_file(p)
    p.add_argument("--aut-radius", type=int, default=1, help="search radius for shift symmetries")
    _add_out(p)
    p.set_defaults(run=_cmd_analyze)

    p = commands.add_parser("language", help="admissible blocks of one length")
    _add_sub_file(p)
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(run=_cmd_language)

    p = commands.add_parser("complexity", help="block counts up to a length")
    _add_sub_file(p)
    p.add_argument("--n-max", type=int, default=12)
    _add_out(p)
    p.set_defaults(run=_cmd_complexity)

    p = commands.add_parser("pf", help="expansion constant and exact letter frequencies")
    _add_sub_file(p)
    _add_out(p)
    p.set_defaults(run=_cmd_pf)

    p = commands.add_parser("cr", help="balance verdict for the frequency cocycle")
    _add_sub_file(p)
    _add_out(p)
    p.set_defaults(run=_cmd_cr)

    p = commands.add_parser("coinvariants", help="ordered group invariants of the recoded space")
    _add_sub_file(p)
    _add_out(p)
    p.set_defaults(run=_cmd_coinvariants)

    p = commands.add_parser("asymptotics", help="paired one-sided orbits and their classes")
    _add_sub_file(p)
    p.add_argument("--dot", action="store_true", help="emit a Graphviz view instead of JSON")
    _add_out(p)
    p.set_defaults(run=_cmd_asymptotics)

    p = commands.add_parser("aut", help="exhaustive radius-bounded symmetry search")
    _add_sub_file(p)
    p.add_argument("--radius", type=int, default=2)
    _add_out(p)
    p.set_defaults(run=_cmd_aut)

    p = commands.add_parser("induce", help="return words and exact entry measures of a section")
    _add_sub_file(p)
    p.add_argument("--word", default="", help="cylinder word; empty for the whole space")
    _add_out(p)
    p.set_defaults(run=_cmd_induce)

    p = commands.add_parser("flowcode", help="build and measure orbit-equivalence codes")
    flow = p.add_subparsers(dest="flow_command", required=True)

    q = flow.add_parser("make", help="build one code and report its scaling factor")
    _add_sub_file(q)
    _add_flow_code_args(q)
    _add_out(q)
    q.set_defaults(run=_cmd_flowcode_make)

    q = flow.add_parser("compose", help="compose two codes (first, then second)")
    _add_sub_file(q)
    q.add_argument("--first", choices=("identity", "tilde", "automorphism"), default="tilde")
    q.add_argument("--second", choices=("identity", "tilde", "automorphism"), default="tilde")
    q.add_argument("--first-map", default=None)
    q.add_argument("--second-map", default=None)
    _add_out(q)
    q.set_defaults(run=_cmd_flowcode_compose)

    q = flow.add_parser("restrict", help="restrict a code to a smaller section")
    _add_sub_file(q)
    _add_flow_code_args(q)
    q.add_argument("--word", required=True, help="cylinder word of the smaller section")
    _add_out(q)
    q.set_defaults(run=_cmd_flowcode_restrict)

    q = flow.add_parser("slopes", help="exact per-step slope profile along an orbit")
    _add_sub_file(q)
    _add_flow_code_args(q)
    q.add_argument("--k-max", type=int, default=24)
    _add_out(q)
    q.set_defaults(run=_cmd_flowcode_slopes)

    q = flow.add_parser("rmu", help="measure scaling factor of a code")
    _add_sub_file(q)
    _add_flow_code_args(q)
    _add_out(q)
    q.set_defaults(run=_cmd_flowcode_rmu)

    p = commands.add_parser("sturmian", help="classify a rotation subshift by its slope")
    p.add_argument("--surd", default=None, help="quadratic slope '(b, a, D, c)' for (b*sqrt(D) + a)/c")
    p.add_argument("--non-quadratic", action="store_true", help="slope is irrational but not quadratic")
    _add_out(p)
    p.set_defaults(run=_cmd_sturmian)

    p = commands.add_parser("odometer", help="adding machine invariants from a supernatural base")
    p.add_argument("--preperiod", default="", help="comma separated primes used finitely often")
    p.add_argument("--period", required=True, help="comma separated primes repeating forever")
    _add_out(p)
    p.set_defaults(run=_cmd_odometer)

    p = commands.add_parser("hierarchical", help="concatenation tower words and their measures")
    p.add_argument("--n", required=True, help="comma separated stage multiplicities")
    p.add_argument("--tables", type=int, default=None, help="also emit block frequency tables of this length")
    _add_out(p)
    p.set_defaults(run=_cmd_hierarchical)

    p = commands.add_parser("checklist", help="finite checks behind the measure count bound")
    p.add_argument("file", nargs="?", default=None, help="substitution JSON file")
    p.add_argument("--hierarchical", default=None, help="stage multiplicities instead of a file")
    p.add_argument("--n-max", type=int, default=24)
    _add_out(p)
    p.set_defaults(run=_cmd_checklist)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.run(args)
    except SystemExit as exc:  # --help
        return exc.code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource budget exhausted: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
