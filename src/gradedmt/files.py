"""JSON and theory-file loaders and serializers.

Algebra files: {"elements": [...], "star": [[...]], "implies": [[...]]}
with 0-based indices into "elements"; "implies" may be omitted and is
then derived; extra operations are rejected.  An unnamed chain is named
after its file, but chains compare by their tables alone.  Structure files
reference their algebra by relative path or carry it inline; predicate
and function tables are objects keyed by comma-joined argument labels
(the empty string for arity 0).  Theory files are newline-separated
formulas with `#` comments.  Chain files are JSON lists of structure paths.
"""

import json
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

from .algebra import FiniteChain, chain_from_dict, validate_chain
from .errors import FormatError, PreconditionError
from .parser import _infer_theory, parse_theory
from .semantics import Structure
from .syntax import Formula, Signature


def _read_json(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}")


def _checked_chain(data, path: Path) -> FiniteChain:
    """The chain in algebra data read from `path`, with every law checked;
    a failure, shape errors included, is a FormatError that names the file."""
    try:
        chain = chain_from_dict(data)
    except PreconditionError as err:
        raise FormatError(f"{path}: cannot derive a residuum: {err}")
    except FormatError as err:
        raise FormatError(f"{path}: {err}")
    report = validate_chain(chain)
    if not report.ok:
        first = report.violations[0]
        raise FormatError(
            f"{path}: not a valid chain ({len(report.violations)} violations; first: {first})"
        )
    return chain


def load_algebra(path) -> FiniteChain:
    path = Path(path)
    chain = _checked_chain(_read_json(path), path)
    return chain if chain.name else replace(chain, name=path.stem)


def algebra_to_dict(chain: FiniteChain) -> dict:
    out = {
        "elements": list(chain.elements),
        "star": [list(row) for row in chain.star],
        "implies": [list(row) for row in chain.implies],
    }
    if chain.name:
        out["name"] = chain.name
    return out


def save_algebra(chain: FiniteChain, path) -> None:
    Path(path).write_text(json.dumps(algebra_to_dict(chain), indent=2) + "\n", encoding="utf-8")


def _split_key(key: str, arity: int, where: str) -> tuple:
    if arity == 0:
        if key != "":
            raise FormatError(f"{where}: nullary table key must be empty, got {key!r}")
        return ()
    parts = key.split(",")
    if len(parts) != arity:
        raise FormatError(f"{where}: key {key!r} does not have {arity} components")
    return tuple(parts)


def _join_key(args: tuple) -> str:
    for a in args:
        if "," in a:
            raise FormatError(f"label {a!r} contains a comma and cannot be serialized")
    return ",".join(args)


def _symbol_tables(specs, what: str, read_value) -> tuple[dict, dict]:
    """Arities and value tables of one kind of symbol in a structure file."""
    if not isinstance(specs, Mapping):
        raise FormatError(f"{what}s must be given as a JSON object")
    arities, tables = {}, {}
    for name, spec in specs.items():
        where = f"{what} {name!r}"
        try:
            arity = int(spec.get("arity", -1))
            table = dict(spec.get("table", {}))
        except (AttributeError, TypeError, ValueError):
            raise FormatError(f"{where}: expected an integer arity and an object table") from None
        if arity < 0:
            raise FormatError(f"{where} needs an arity")
        arities[name] = arity
        tables[name] = {
            _split_key(key, arity, where): read_value(where, label)
            for key, label in table.items()
        }
    return arities, tables


def load_structure(path) -> Structure:
    """Load and validate a structure file.

    The algebra comes from the file's "algebra" entry: an inline object,
    or a path relative to the structure file.  An inline algebra is
    checked as an algebra file is, and an error in it names the
    structure file.
    """
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, Mapping):
        raise FormatError(f"{path}: structure file must hold a JSON object")
    ref = data.get("algebra")
    if ref is None:
        raise FormatError(f"{path}: missing algebra reference")
    chain = load_algebra(path.parent / ref) if isinstance(ref, str) else _checked_chain(ref, path)
    domain = data.get("domain", [])
    if not isinstance(domain, list) or not domain:
        raise FormatError(f"{path}: domain must be a non-empty JSON list, got {domain!r}")
    domain = tuple(str(d) for d in domain)

    def chain_index(where: str, label) -> int:
        if not chain.has_label(str(label)):
            raise FormatError(f"{where} value {label!r} is not a chain element")
        return chain.index(str(label))

    sig_preds, predicates = _symbol_tables(
        data.get("predicates", {}), f"{path}: predicate", chain_index
    )
    sig_funcs, functions = _symbol_tables(
        data.get("functions", {}), f"{path}: function", lambda where, label: str(label)
    )
    sig = Signature(predicates=sig_preds, functions=sig_funcs)
    try:
        return Structure(
            chain=chain,
            sig=sig,
            domain=domain,
            predicates=predicates,
            functions=functions,
            name=str(data.get("name", path.stem)),
        )
    except FormatError as err:
        raise FormatError(f"{path}: {err}")


def structure_to_dict(s: Structure) -> dict:
    out: dict = {"algebra": algebra_to_dict(s.chain), "domain": list(s.domain)}
    if s.name:
        out["name"] = s.name
    out["predicates"] = {
        name: {
            "arity": s.sig.predicates[name],
            "table": {
                _join_key(args): s.chain.label(v) for args, v in sorted(table.items())
            },
        }
        for name, table in sorted(s.predicates.items())
    }
    out["functions"] = {
        name: {
            "arity": s.sig.functions[name],
            "table": {_join_key(args): v for args, v in sorted(table.items())},
        }
        for name, table in sorted(s.functions.items())
    }
    return out


def save_structure(s: Structure, path) -> None:
    Path(path).write_text(json.dumps(structure_to_dict(s), indent=2) + "\n", encoding="utf-8")


def load_theory(
    path, sig: Signature | None = None, licensed_labels: Sequence[str] = ()
) -> tuple[list[Formula], Signature]:
    """Parse a theory file; infer the signature when none is given."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}")
    if sig is None:
        return _infer_theory(text, licensed_labels)
    return parse_theory(text, sig), sig


def save_theory(formulas: Sequence[Formula], path) -> None:
    from .parser import render_formula

    lines = [render_formula(phi) for phi in formulas]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_chain_file(path) -> list[Structure]:
    """A chain file is a JSON list of structure paths, in order."""
    path = Path(path)
    entries = _read_json(path)
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise FormatError(f"{path}: chain file must be a JSON list of structure paths")
    return [load_structure(path.parent / entry) for entry in entries]
