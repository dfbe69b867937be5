"""Command-line front end.

Every subcommand emits either a human-readable text report or a JSON
report with a fixed envelope (see schemas/report.schema.json).  Exit
codes: 0 clean, 1 when a violation, countermodel or failed check was
found, 2 for usage errors.  Reports are deterministic: the same seed and
inputs produce byte-identical output.  GRADEDMT_BUDGET overrides the
default search budget; it is the only source of the budget, for the CLI
and the library alike.
"""

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from . import algebra, corpus
from .chains import check_tarski_vaught, normalize_chain, union_of_chain, validate_chain_of_structures
from .consequence import bounded_consequence, equiv_up_to_depth
from .diagrams import (
    DiagramBounds,
    build_diagram,
    cor1_sweep,
    diagram_embedding_equivalence,
    interpret_constants,
    models_diagram,
    render_diagram,
)
from .errors import GradedmtError, PreconditionError
from .files import (
    load_algebra,
    load_chain_file,
    load_structure,
    load_theory,
    save_structure,
    structure_to_dict,
)
from .morphisms import (
    enumerate_substructures,
    induced_substructure,
    is_elementary_up_to_depth,
    is_embedding,
    is_substructure,
    search_structure_map,
)
from .parser import infer_signature, parse_formula, render_formula
from .preservation import (
    AmalgamInstance,
    FormulaBounds,
    implies_exists_n,
    reproduce_counterexample,
    search_amalgam,
    substructure_preservation_suite,
    union_preservation_suite,
    universal_consequences_bounded,
)
from .randomgen import roundtrip_suite
from .semantics import eval_formula
from .syntax import EXISTS, Signature, classify_prenex, expand_with_truth_constants, free_variables


def _emit(args, payload: dict, ok: bool, text_lines) -> int:
    envelope = {
        "tool": "gradedmt",
        "command": args.command,
        "ok": ok,
        "seed": getattr(args, "seed", None),
        "report": payload,
    }
    if args.format == "json":
        body = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)
    return 0 if ok else 1


def _structure_with_options(args, attr="structure"):
    s = load_structure(getattr(args, attr))
    if args.truth_constants:
        s = replace(s, sig=expand_with_truth_constants(s.sig, s.chain))
    return s


def _parse_binds(binds, flag="--bind", shape="VAR=LABEL"):
    out = {}
    for item in binds or ():
        if "=" not in item:
            raise GradedmtError(f"{flag} expects {shape}, got {item!r}")
        var, label = item.split("=", 1)
        if var in out:
            raise GradedmtError(f"{flag} names {var!r} twice")
        out[var] = label
    return out


def _bounds_from(args) -> FormulaBounds:
    return FormulaBounds(args.matrix_depth, args.num_vars, args.max_candidates)


def _diagram_bounds_from(args) -> DiagramBounds:
    return DiagramBounds(args.term_depth, args.connective_depth, args.quantifier_depth, args.num_vars)


# --- subcommand handlers ---


def cmd_eval(args) -> int:
    s = _structure_with_options(args)
    phi = parse_formula(args.formula, s.sig)
    assignment = _parse_binds(args.bind)
    for var, label in assignment.items():
        if label not in s.domain:
            raise GradedmtError(f"--bind {var}={label}: {label!r} is not a domain element")
    loose = free_variables(phi) - set(assignment)
    if loose:
        raise GradedmtError(f"unbound variables {sorted(loose)}; use --bind")
    value = s.chain.label(eval_formula(phi, s, assignment))
    return _emit(args, {"value": value, "formula": render_formula(phi)}, True, [value])


def cmd_classify(args) -> int:
    sig = infer_signature(args.formula, licensed_labels=args.labels.split(",") if args.labels else ())
    cls = str(classify_prenex(parse_formula(args.formula, sig)))
    return _emit(args, {"prenex_class": cls}, True, [cls])


def cmd_check_sub(args) -> int:
    sub = load_structure(args.sub)
    sup = load_structure(getattr(args, "super"))
    rep = is_substructure(sub, sup)
    payload = {"substructure": rep.ok, "clause": rep.clause, "detail": rep.detail}
    lines = ["substructure" if rep.ok else f"not a substructure (clause {rep.clause}: {rep.detail})"]
    return _emit(args, payload, rep.ok, lines)


def cmd_enum_subs(args) -> int:
    s = load_structure(args.structure)
    domains = [list(sub.domain) for sub in enumerate_substructures(s, args.include_subalgebra_reducts)]
    payload = {"count": len(domains), "domains": domains}
    lines = [f"{len(domains)} substructures"] + [",".join(d) for d in domains]
    return _emit(args, payload, True, lines)


def cmd_find_map(args) -> int:
    source = load_structure(args.source)
    target = load_structure(args.target)
    found = search_structure_map(source, target, not args.free_algebra_map, args.injective)
    if found is None:
        kind = "embedding" if args.injective else "homomorphism"
        return _emit(args, {"found": False}, False, [f"no strong {kind}"])
    payload = {
        "found": True,
        "domain_map": dict(sorted(found.domain_map.items())),
        "algebra_map": list(found.algebra_map.map),
    }
    lines = [f"{d} -> {found.domain_map[d]}" for d in source.domain]
    return _emit(args, payload, True, lines)


def cmd_diagram(args) -> int:
    s = load_structure(args.structure)
    d = build_diagram(s, args.kind, _diagram_bounds_from(args))
    text = render_diagram(d)
    payload = {
        "kind": d.kind,
        "entries": len(d.values),
        "completeness": d.completeness,
        "theory": text,
    }
    return _emit(args, payload, True, [text.rstrip("\n")])


def cmd_check_diagram(args) -> int:
    source = load_structure(args.source)
    target = load_structure(args.target)
    bounds = _diagram_bounds_from(args)
    if args.map:
        diagram = build_diagram(source, args.kind, bounds)
        mapping = _parse_binds(args.map.split(","), "--map", "SOURCE=TARGET")
        for element in [*mapping, *source.domain]:  # the diagram's constants name the domain in order
            if element not in source.domain:
                raise GradedmtError(f"--map names {element!r}, which is not a source element")
            if element not in mapping:
                raise GradedmtError(f"--map misses source element {element!r}")
            if mapping[element] not in target.domain:
                raise GradedmtError(f"--map sends {element!r} to {mapping[element]!r}, which is not a target element")
        expanded = interpret_constants(target, diagram, [mapping[element] for element in source.domain])
        rep = models_diagram(expanded, diagram)
        payload = {"models": rep.ok}
        if not rep.ok:
            payload["failing"] = render_formula(rep.failing.sentence)
            payload["expected"] = source.chain.label(rep.failing.value)
            payload["actual"] = target.chain.label(rep.actual)
        return _emit(args, payload, rep.ok, [json.dumps(payload, sort_keys=True)])
    report = diagram_embedding_equivalence(source, target, args.kind, bounds)
    payload = {
        "diagram_side": report.diagram_side,
        "embedding_side": report.embedding_side,
        "agree": report.agree,
    }
    lines = [
        f"diagram side: {report.diagram_side}",
        f"embedding side: {report.embedding_side}",
        f"agree: {report.agree}",
    ]
    return _emit(args, payload, report.agree, lines)


def cmd_equiv(args) -> int:
    left = _structure_with_options(args, "left")
    right = _structure_with_options(args, "right")
    sig = left.sig
    res = equiv_up_to_depth(left, right, args.depth, sig=sig)
    payload = {
        "equivalent": res.equal,
        "depth": res.depth,
        "sentences_checked": res.sentences_checked,
        "separator": render_formula(res.separator) if res.separator else None,
    }
    lines = [
        f"equivalent to depth {args.depth}: {res.equal}"
        + (f" (separated by {payload['separator']})" if res.separator else "")
    ]
    return _emit(args, payload, res.equal, lines)


def cmd_union(args) -> int:
    members = load_chain_file(args.chain)
    if args.normalize:
        members = normalize_chain(members)
    chain = validate_chain_of_structures(members)
    union = union_of_chain(chain)
    if args.save:
        save_structure(union, args.save)
    payload = {"domain": list(union.domain), "members": len(members)}
    return _emit(args, payload, True, [f"union domain: {','.join(union.domain)}"])


def cmd_check_chain(args) -> int:
    members = load_chain_file(args.chain)
    if args.normalize:
        members = normalize_chain(members)
    chain = validate_chain_of_structures(members, elementary_depth=args.elementary_depth)
    tv = check_tarski_vaught(chain, depth=args.tv_depth, matrix_depth=args.matrix_depth)
    payload = {
        "members": len(members),
        "quantifier_free_ok": tv.quantifier_free_ok,
        "quantifier_free_checked": tv.quantifier_free_checked,
        "elementary_precheck_ok": tv.elementary_precheck_ok,
        "depth_ok": tv.depth_ok,
    }
    lines = [f"valid chain of {len(members)} structures",
             f"quantifier-free union clause: {'ok' if tv.quantifier_free_ok else 'VIOLATED'}"]
    if args.tv_depth is not None:
        lines.append(
            f"depth-{args.tv_depth} clause: precheck "
            f"{'ok' if tv.elementary_precheck_ok else 'failed (skipped)'}"
            + (f", values {'ok' if tv.depth_ok else 'VIOLATED'}" if tv.elementary_precheck_ok else "")
        )
    return _emit(args, payload, tv.ok, lines)


def cmd_implies_exists(args) -> int:
    left = _structure_with_options(args, "left")
    right = _structure_with_options(args, "right")
    params = tuple(args.params.split(",")) if args.params else ()
    rep = implies_exists_n(left, right, params, args.n, _bounds_from(args))
    payload = {
        "holds": rep.ok,
        "n": rep.n,
        "candidates_checked": rep.candidates_checked,
        "separator": render_formula(rep.separator) if rep.separator else None,
        "bounds": rep.bounds.as_dict(),
    }
    lines = [
        f"existential transfer (n={args.n}): {rep.ok}"
        + (f", separated by {payload['separator']}" if rep.separator else "")
    ]
    return _emit(args, payload, rep.ok, lines)


def cmd_amalgamate(args) -> int:
    left = _structure_with_options(args, "left")
    right = _structure_with_options(args, "right")
    common = load_structure(args.common) if args.common else None
    params = tuple(args.params.split(",")) if args.params else ()
    instance = AmalgamInstance(left=left, right=right, common=common, generators=params)
    try:
        result = search_amalgam(instance, args.n, args.max_size, args.depth, _bounds_from(args))
    except PreconditionError as err:
        payload = {"status": "precondition-failed", "separator": str(err)}
        return _emit(args, payload, False, [str(err)])
    if not result.found:
        payload = {"status": result.status, "candidates_tried": result.candidates_tried}
        return _emit(args, payload, False, ["no amalgam within bounds (inconclusive)"])
    if args.save:
        save_structure(result.amalgam, args.save)
    payload = {
        "status": "found",
        "size": result.amalgam.size,
        "domain": list(result.amalgam.domain),
        "left_map": dict(sorted(result.left_map.domain_map.items())),
        "right_inclusion": list(right.domain),
        "elementary_depth": result.elementary_depth,
        "candidates_tried": result.candidates_tried,
        "amalgam": structure_to_dict(result.amalgam),
    }
    lines = [
        f"amalgam of size {result.amalgam.size} found "
        f"(left embeds via {payload['left_map']}, right included, "
        f"elementary to depth {result.elementary_depth})"
    ]
    return _emit(args, payload, True, lines)


def cmd_consequence(args) -> int:
    chain = load_algebra(args.algebra)
    licensed = chain.elements if args.truth_constants else ()
    theory, sig = load_theory(args.theory, licensed_labels=licensed)
    phi = parse_formula(args.formula, sig)
    res = bounded_consequence(theory, phi, sig, chain, args.max_domain)
    payload = {
        "holds": res.holds,
        "max_domain": res.max_domain,
        "structures_checked": res.structures_checked,
        "countermodel": structure_to_dict(res.countermodel) if res.countermodel else None,
    }
    lines = [f"holds (bounded, domains <= {args.max_domain})" if res.holds else "countermodel found"]
    if res.countermodel is not None:
        lines.append(json.dumps(payload["countermodel"], sort_keys=True))
    return _emit(args, payload, res.holds, lines)


def cmd_universal_consequences(args) -> int:
    chain = load_algebra(args.algebra)
    licensed = chain.elements if args.truth_constants else ()
    theory, sig = load_theory(args.theory, licensed_labels=licensed)
    out = universal_consequences_bounded(theory, sig, chain, args.max_domain, _bounds_from(args))
    rendered = [render_formula(phi) for phi in out]
    payload = {"count": len(rendered), "sentences": rendered}
    return _emit(args, payload, True, rendered or ["(none)"])


def cmd_counterexample(args) -> int:
    rep = reproduce_counterexample(depth=args.depth)
    payload = rep.as_dict()
    lines = [
        f"value of (forall x) P(x): {rep.value_in_m} vs {rep.value_in_n}",
        f"base-language equivalence to depth {rep.base_equivalent_to_depth}: {rep.base_equivalence_holds}",
        f"{rep.expanded_sentence}: {rep.expanded_value_in_m} vs {rep.expanded_value_in_n}",
        f"substructures preserving the sentence: {rep.substructures_satisfying}/{rep.substructures_of_m}",
        f"verdict: {'reproduced' if rep.ok else 'FAILED'}",
    ]
    return _emit(args, payload, rep.ok, lines)


def _suite_negative_control(args) -> dict:
    rep = substructure_preservation_suite(args.seed, args.instances, lead=EXISTS, claim="exists(1)-negative-control")
    # the control passes when violations DO occur
    return {**rep.as_dict(), "ok": len(rep.violations) >= 1, "expected": "at least one violation"}


def _suite_cor1(args) -> dict:
    rep = cor1_sweep(corpus.godel3(), Signature(predicates={"R": 2}), 2, 3)
    counts = ("instances", "agreements", "both_true", "both_false", "ok")
    return {"claim": "diagram-embedding-equivalence", **{name: getattr(rep, name) for name in counts}}


def _suite_algebra(args) -> dict:
    results = {}
    for name in ("godel4", "lukasiewicz3", "bool2"):
        chain = getattr(corpus, name)()
        results[name] = {"valid": algebra.validate_chain(chain).ok,
                         "residuum_reproduced": algebra.derive_residuum(chain.elements, chain.star) == chain.implies}
    return {"claim": "algebra-soundness", "chains": results, "ok": all(all(r.values()) for r in results.values())}


def _suite_bounded_consequence(args) -> dict:
    chain = corpus.godel4()
    theory, sig = corpus.weighted_graph_theory()
    reversed_symmetry = parse_formula("forall x y . (R(y, x) -> R(x, y))", sig)
    entailed = bounded_consequence(theory, reversed_symmetry, sig, chain, 3)
    symmetry = [parse_formula("forall x y . (R(x, y) -> R(y, x))", sig)]
    irreflexivity = parse_formula("forall x . (R(x, x) -> val(0))", sig)
    refuted = bounded_consequence(symmetry, irreflexivity, sig, corpus.bool2(), 1)
    refuted_at_1 = not refuted.holds and refuted.countermodel.size == 1
    return {"claim": "bounded-consequence", "reversed_symmetry_entailed_at_3": entailed.holds,
            "irreflexivity_refuted_with_size_1": refuted_at_1, "ok": entailed.holds and refuted_at_1}


def _suite_amalgamation(args) -> dict:
    p3 = corpus.path3()
    checks = {}
    trivial = AmalgamInstance(left=p3, right=p3, common=p3, generators=tuple(p3.domain))
    res = search_amalgam(trivial, 1, 3)
    checks["trivial_n1"] = res.found and _certificates_ok(res, p3, p3)
    growth = AmalgamInstance(left=corpus.edgeless3(), right=p3)
    res2 = search_amalgam(growth, 1, 4)
    checks["growth_n1"] = (
        res2.found and res2.amalgam.size == 4 and _certificates_ok(res2, corpus.edgeless3(), p3)
    )
    common1 = induced_substructure(p3, ["n0"])
    twin = AmalgamInstance(left=p3, right=p3, common=common1, generators=("n0",))
    res3 = search_amalgam(twin, 2, 3)
    checks["common_point_n2"] = res3.found and _certificates_ok(res3, p3, p3)
    m, n = corpus.structure_m(), corpus.structure_n()
    sig_a = expand_with_truth_constants(m.sig, m.chain)
    m, n = replace(m, sig=sig_a), replace(n, sig=sig_a)
    try:
        search_amalgam(AmalgamInstance(left=m, right=n), 1, 3)
        checks["truth_constant_precondition_fails"] = False
    except PreconditionError as err:
        checks["truth_constant_precondition_fails"] = (
            err.witness is not None and render_formula(err.witness.separator) == "exists x1 . P(x1) <-> val(3/4)")
    return {"claim": "amalgamation-certificates", "checks": checks, "ok": all(checks.values())}


def _certificates_ok(result, left, right) -> bool:
    return (is_embedding(result.left_map, left, result.amalgam).ok and is_substructure(right, result.amalgam).ok
            and is_elementary_up_to_depth(result.right_map, right, result.amalgam, result.elementary_depth).ok)


_SUITES = {
    "los-tarski-lemma": lambda args: substructure_preservation_suite(args.seed, args.instances).as_dict(),
    "exists-negative-control": _suite_negative_control,
    "unions-chain-lemma": lambda args: union_preservation_suite(args.seed, args.instances).as_dict(),
    "cor1-equivalence": _suite_cor1,
    "parser-roundtrip": lambda args: roundtrip_suite(args.seed, args.instances),
    "counterexample": lambda args: reproduce_counterexample().as_dict(),
    "algebra-soundness": _suite_algebra,
    "bounded-consequence": _suite_bounded_consequence,
    "amalgamation": _suite_amalgamation,
}


def cmd_verify(args) -> int:
    if args.suite not in _SUITES:
        raise GradedmtError(f"unknown suite {args.suite!r}; have {sorted(_SUITES)}")
    payload = _SUITES[args.suite](args)
    ok = bool(payload.get("ok"))
    lines = [f"suite {args.suite}: {'pass' if ok else 'FAIL'}"] + [
        f"  {key}: {value}" for key, value in sorted(payload.items())
        if key not in ("claim", "ok", "violations", "sentences")]
    violations = payload.get("violations")
    if violations:
        lines.append(f"  violations: {len(violations)}")
    return _emit(args, payload, ok, lines)


# --- argument parsing ---


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


_OPTIONS = {  # each flag's add_argument keywords, which a command may update at its flag
    "--structure": dict(required=True),
    "--formula": dict(required=True),
    "--bind": dict(action="append", metavar="VAR=LABEL"),
    "--truth-constants": dict(action="store_true"),
    "--labels": dict(default="", help="comma-separated licensed truth-constant labels"),
    "--sub": dict(required=True),
    "--super": dict(required=True),
    "--include-subalgebra-reducts": dict(action="store_true"),
    "--source": dict(required=True),
    "--target": dict(required=True),
    "--free-algebra-map": dict(action="store_true"),
    "--map": dict(help="comma-separated a=x interpretation of source elements"),
    "--kind": dict(choices=("diag", "eldiag"), default="diag"),
    "--term-depth": dict(type=_nonnegative_int, default=0),
    "--connective-depth": dict(type=_nonnegative_int, default=0),
    "--quantifier-depth": dict(type=_nonnegative_int, default=1),
    "--num-vars": dict(type=_nonnegative_int, default=2),
    "--left": dict(required=True),
    "--right": dict(required=True),
    "--depth": dict(type=_nonnegative_int, default=2),
    "--chain": dict(required=True),
    "--normalize": dict(action="store_true"),
    "--save": dict(),  # its help is given at each command
    "--elementary-depth": dict(type=_nonnegative_int),
    "--tv-depth": dict(type=_nonnegative_int),
    "--matrix-depth": dict(type=_nonnegative_int, default=1),
    "--n": dict(type=_nonnegative_int, default=1),
    "--params": dict(default=""),
    "--common": dict(),
    "--max-size": dict(type=_positive_int, required=True),
    "--theory": dict(required=True),
    "--algebra": dict(required=True),
    "--max-domain": dict(type=int, required=True),
    "--suite": dict(required=True),
    "--instances": dict(type=_positive_int, default=50),
    "--format": dict(choices=("json", "text"), default="text"),
    "--out": dict(help="write the report to this path instead of stdout"),
    "--seed": dict(type=int, default=0),
    "--max-candidates": dict(type=_nonnegative_int),
}
_REPORT = ("--format", "--out")
_BOUNDS = ("--matrix-depth", "--num-vars", "--max-candidates")
_DIAGRAM = ("--kind", "--term-depth", "--connective-depth", "--quantifier-depth", "--num-vars")
_FIND_MAP = ("--source", "--target", "--free-algebra-map")

# name, help, handler, flags in --help order, then any handler defaults; a
# (flag, keywords) pair updates the flag's `_OPTIONS` keywords at its command
_COMMANDS = (
    ("eval", "evaluate a formula in a structure", cmd_eval,
     ("--structure", "--formula", "--bind", "--truth-constants", *_REPORT)),
    ("classify", "prenex class of a formula", cmd_classify, ("--formula", "--labels", *_REPORT)),
    ("check-sub", "substructure test", cmd_check_sub, ("--sub", "--super", *_REPORT)),
    ("enum-subs", "enumerate substructures", cmd_enum_subs,
     ("--structure", "--include-subalgebra-reducts", *_REPORT)),
    ("find-hom", "search a strong homomorphism", cmd_find_map, (*_FIND_MAP, *_REPORT), {"injective": False}),
    ("find-embed", "search a strong embedding", cmd_find_map, (*_FIND_MAP, *_REPORT), {"injective": True}),
    ("diagram", "diagram", cmd_diagram, ("--structure", *_DIAGRAM, *_REPORT)),
    ("check-diagram", "check diagram", cmd_check_diagram, ("--source", "--target", "--map", *_DIAGRAM, *_REPORT)),
    ("equiv", "depth-bounded sentence equivalence", cmd_equiv,
     ("--left", "--right", "--depth", "--truth-constants", *_REPORT)),
    ("union", "union of a chain file", cmd_union,
     ("--chain", "--normalize", ("--save", dict(help="write the union structure to this path")), *_REPORT)),
    ("check-chain", "validate a chain and its union clauses", cmd_check_chain,
     ("--chain", "--normalize", "--elementary-depth", "--tv-depth", "--matrix-depth", *_REPORT)),
    ("implies-exists", "bounded existential transfer", cmd_implies_exists,
     ("--left", "--right", "--n", "--params", "--truth-constants", *_REPORT, *_BOUNDS)),
    ("amalgamate", "bounded amalgam certificate search", cmd_amalgamate,
     ("--left", "--right", "--common", "--params", "--n", "--max-size", "--depth", "--truth-constants",
      ("--save", dict(help="write the amalgam structure to this path")), *_REPORT, *_BOUNDS)),
    ("consequence", "bounded semantic consequence", cmd_consequence,
     ("--theory", "--algebra", "--formula", "--max-domain",
      ("--truth-constants", dict(action=argparse.BooleanOptionalAction, default=True)), *_REPORT)),
    ("universal-consequences", "bounded universal consequences", cmd_universal_consequences,
     ("--theory", "--algebra", "--max-domain",
      ("--truth-constants", dict(action=argparse.BooleanOptionalAction, default=True)), *_REPORT, *_BOUNDS)),
    ("counterexample", "reproduce the bundled separation example", cmd_counterexample, ("--depth", *_REPORT)),
    ("verify", "run a verification suite", cmd_verify, ("--suite", "--instances", *_REPORT, "--seed")),
)


@cache  # built once per process: argparse keeps no state between parse_args calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedmt",
        description="Graded first-order model theory over finite chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, flags, *defaults in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, **dict(*defaults))
        for flag in flags:
            flag, keywords = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument(flag, **{**_OPTIONS[flag], **keywords})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (GradedmtError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
