"""The benchmark's traced mode wraps flowgrid names; they must all exist."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_spans_install_finds_every_name_it_wraps():
    # a fresh interpreter: install patches flowgrid's modules in place
    script = ("import sys; sys.path[:0] = sys.argv[1:]; "
              "import spans; spans.install(spans.Recorder())")
    result = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
