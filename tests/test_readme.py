import re
from pathlib import Path

from fbcompose import write_image

from synth import synthetic_clean

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_api_blocks() -> list[str]:
    """The ```python blocks of the README's "## Python API" section, in order."""
    text = README.read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, flags=re.M | re.S)


def test_python_api_examples_run(tmp_path, monkeypatch, capsys):
    blocks = _python_api_blocks()
    assert len(blocks) >= 3
    monkeypatch.chdir(tmp_path)
    write_image(synthetic_clean(400, width=24, height=20), tmp_path / "clean.pgm")
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert isinstance(namespace["loss"], namespace["fb"].Loss)
    assert (tmp_path / "restored.pgm").exists()
    psnr_db, ssim = map(float, capsys.readouterr().out.split())
    assert psnr_db > 0 and 0 < ssim <= 1
