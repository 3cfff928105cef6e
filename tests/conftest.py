import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inkscan
from inkscan.binarize import SpectrumSet

# NumPy's AVX-512 targets; with them off, NumPy runs its AVX2 baseline loops
AVX512_TARGETS = "X86_V4 AVX512_ICL AVX512_SPR"
# every NumPy dispatch target; with them off, NumPy runs its X86_V2 (SSE4.2) baseline loops
X86_V3_TARGETS = "X86_V3 " + AVX512_TARGETS


def subprocess_env(**overrides) -> dict:
    """This process's environment with this checkout's inkscan importable."""
    src = str(Path(inkscan.__file__).resolve().parents[1])
    return {**os.environ, **overrides,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def cpu_features_off_env(targets: str) -> dict:
    """`subprocess_env` with NumPy's dispatch `targets` off, checked to have
    taken: NumPy ignores names it does not know, and a comma-separated list."""
    env = subprocess_env(NPY_DISABLE_CPU_FEATURES=targets)
    probe = ("from numpy._core._multiarray_umath import __cpu_features__ as f; "
             "assert not any(f[name] for name in %r.split())" % targets)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
    return env


def avx512_off_env() -> dict:
    """`subprocess_env` with NumPy's AVX-512 loops off, checked to have taken."""
    return cpu_features_off_env(AVX512_TARGETS)


def openblas_core_env(core: str) -> dict:
    """`subprocess_env` with OpenBLAS's kernels forced to `core`, checked to
    have taken. Under OPENBLAS_VERBOSE=2 a DYNAMIC_ARCH OpenBLAS prints the
    `Core: <name>` it runs as numpy loads, and "Core not found" for a name it
    ignores; it may print another name for the same kernels (NumPy 2.4's
    OpenBLAS 0.3.31 names its Prescott kernels Katmai)."""
    env = subprocess_env(OPENBLAS_CORETYPE=core)

    def core_line(overrides):
        result = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                                text=True, env={**overrides, "OPENBLAS_VERBOSE": "2"})
        return result.stderr

    default = core_line({k: v for k, v in env.items() if k != "OPENBLAS_CORETYPE"})
    forced = core_line(env)
    assert "Core: " in forced and "not found" not in forced and forced != default, forced
    return env


def make_spectrum_set(vectors) -> SpectrumSet:
    """Wrap raw (N, B) data in a SpectrumSet with synthetic coordinates.

    uint8 data keeps its dtype, so the set is `eight_bit`; any other data
    is cast to float64 and is not.
    """
    vectors = np.asarray(vectors)
    if vectors.dtype != np.uint8:
        vectors = vectors.astype(np.float64)
    coords = np.column_stack([np.arange(len(vectors)), np.zeros(len(vectors))])
    return SpectrumSet(vectors, coords)


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """Fails the run if any test left a child process unreaped, running or not."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)  # (0, 0) while a child still runs
    except ChildProcessError:
        return
    pytest.fail(f"a test left a child process unreaped: waitpid(-1) gave {left}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if getattr(report, "when", "call") != "call":
                continue
            if "test_acceptance" not in getattr(report, "nodeid", ""):
                continue
            name = report.nodeid.split("::")[-1]
            lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{name}: {verdict}")
