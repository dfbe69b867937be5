"""The five demo scripts print exactly what they printed when their output
was last checked by hand: the SHA-256 of each one's stdout is pinned."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
STDOUT_SHA256 = {
    "01_chains_and_algebras.py": "9b611de814beed05bb053fc64f7b8cdaac771f7d7585911b828c9b18124ac1dc",
    "02_formulas_and_evaluation.py": "0454139ced180936f0abb40770f99c3a933f510881e016876b8bd86245dd3899",
    "03_separating_example.py": "e938162df6781399360b7934bbeff4240022de3ccca97da42a568b6397f322f4",
    "04_embeddings_and_diagrams.py": "d14d60188ce47e6953a27bcd23ecbe067a90692d1180988e686fa506f2995e85",
    "05_preservation_and_amalgamation.py": "9e48c4ae677334064b01352b154915220f66e74ee15b617d948577cfa726030f",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[name]
