"""``repro figure --output-dir`` regenerates the committed figure files.

The CLI and the paper tests render the same rows under the same titles,
so ``repro figure all`` at the tests' scale writes every ``results/fig*``
file byte for byte.
"""

from repro.cli import main

from .conftest import RESULTS_DIR, SCALE

FIGURES = ("fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10")


def test_figure_all_writes_the_committed_results(tmp_path, capsys):
    assert main(
        ["figure", "all", "--scale", str(SCALE), "--output-dir", str(tmp_path)]
    ) == 0
    capsys.readouterr()
    for name in FIGURES:
        written = (tmp_path / f"{name}.txt").read_text()
        assert written == (RESULTS_DIR / f"{name}.txt").read_text(), name
    assert sorted(path.stem for path in tmp_path.iterdir()) == sorted(FIGURES)
