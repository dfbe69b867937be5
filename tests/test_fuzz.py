"""Malformed input never gives a traceback.

Mutation fuzzing from the bundled data: one path of one file is set to a
small random JSON value, or an `extra_ops` key is inserted into one of its
objects.  Loading the file (a structure loads its algebra, a chain file its
structures) either succeeds or raises a GradedmtError, and when it fails a
sample of the CLI runs on the file exit 2.  Generated token text goes to the
formula parser and signature inference with the same contract.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from gradedmt.cli import main
from gradedmt.corpus import data_dir
from gradedmt.errors import GradedmtError
from gradedmt.files import load_algebra, load_chain_file, load_structure
from gradedmt.parser import infer_signature, parse_formula, parse_theory
from gradedmt.syntax import Signature

CHAIN_FILE = "chain.json"
THEORY_FILE = "theory.thy"
FILES = {path.name: json.loads(path.read_text()) for path in sorted(data_dir().glob("*.json"))}
FILES[CHAIN_FILE] = ["edgeless2.json", "edgeless3.json"]


def _kind(name: str) -> str:
    if name == CHAIN_FILE:
        return "chain"
    return "algebra" if "star" in FILES[name] else "structure"


_LOADERS = {"algebra": load_algebra, "structure": load_structure, "chain": load_chain_file}
_CLI = {
    "algebra": lambda path: ["consequence", "--algebra", path, "--theory", THEORY_FILE,
                             "--formula", "forall x . P(x)", "--max-domain", "1"],
    "structure": lambda path: ["enum-subs", "--structure", path],
    "chain": lambda path: ["union", "--chain", path],
}


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _set(node, path, value):
    if not path:
        return value
    node = json.loads(json.dumps(node))
    _at(node, path[:-1])[path[-1]] = value
    return node


_labels = st.text(alphabet="01ab/,.", max_size=3)
_scalars = st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 5, allow_nan=False) | _labels
_json = _scalars | st.lists(_scalars, max_size=3) | st.dictionaries(_labels, _scalars, max_size=3)
_PATHS = {name: list(_paths(doc)) for name, doc in FILES.items()}
_OBJECTS = {name: [path for path in paths if isinstance(_at(FILES[name], path), dict)]
            for name, paths in _PATHS.items()}


@st.composite
def _mutations(draw):
    name = draw(st.sampled_from(sorted(FILES)))
    doc, value = FILES[name], draw(_json)
    if _OBJECTS[name] and draw(st.booleans()):
        path = draw(st.sampled_from(_OBJECTS[name]))
        return name, _set(doc, path, {**_at(doc, path), "extra_ops": value})
    return name, _set(doc, draw(st.sampled_from(_PATHS[name])), value)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, doc in FILES.items():
        (root / name).write_text(json.dumps(doc))
    (root / THEORY_FILE).write_text("forall x . P(x)\n")
    return root


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutation=_mutations(), run_cli=st.sampled_from([True] + [False] * 7))
def test_a_mutated_data_file_loads_or_raises_a_gradedmt_error(workdir, mutation, run_cli):
    name, doc = mutation
    # written beside the pristine files, so relative references still resolve to them
    target = workdir / f"mutated-{name}"
    target.write_text(json.dumps(doc))
    try:
        _LOADERS[_kind(name)](target)
    except GradedmtError:
        if not run_cli:  # building the CLI parser costs more than the load
            return
        out, err = io.StringIO(), io.StringIO()
        with contextlib.chdir(workdir), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(_CLI[_kind(name)](target.name))
        assert code == 2 and err.getvalue().startswith("error: ")


_TOKENS = ["forall", "exists", "not", "val", "x", "y", "x1", "P", "R", "f", "c", "0", "1", "3/4",
           "(", ")", ",", ".", "&", "/\\", "\\/", "->", "<->", "~", "#", "\n", "$"]
_SIG = Signature(predicates={"P": 1, "R": 2}, functions={"f": 1, "c": 0},
                 truth_constants=frozenset({"3/4"}))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tokens=st.lists(st.sampled_from(_TOKENS), max_size=16), separator=st.sampled_from(["", " "]))
def test_generated_text_parses_or_raises_a_gradedmt_error(tokens, separator):
    text = separator.join(tokens)
    for parse in (parse_formula, parse_theory):
        with contextlib.suppress(GradedmtError):
            parse(text, _SIG)
    with contextlib.suppress(GradedmtError):
        parse_theory(text, infer_signature(text, ("3/4",)))
