"""The shared native-kernel loader: one object, one tag, safe concurrent builds."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.workloads import native
from repro.workloads.molecular import cellkernel

needs_compiler = pytest.mark.skipif(
    not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")),
    reason="no C compiler (cc, gcc or clang) on PATH",
)


@pytest.fixture
def fresh_kernel():
    """Forget the loaded library before and after the test."""
    native.reset_kernel_cache()
    yield
    native.reset_kernel_cache()


@needs_compiler
def test_one_library_exports_every_kernel(fresh_kernel, monkeypatch, tmp_path):
    """cellkernel.load_kernel() builds the one shared object, and it
    exports the MD pair counter, the sampler's lookup and the CSR
    counting sort's three phases."""
    monkeypatch.delenv(native.ENV_DISABLE, raising=False)
    monkeypatch.setenv(native.ENV_CACHE_DIR, str(tmp_path))
    lib = cellkernel.load_kernel()
    assert lib is not None
    assert lib is native.load_kernel()
    assert callable(lib.count_pairs) and callable(lib.cdf_lookup)
    assert callable(lib.csr_count) and callable(lib.csr_scatter)
    assert callable(lib.csr_finish)
    built = os.listdir(tmp_path)
    assert len(built) == 1 and built[0].startswith("native-")
    assert built[0].endswith(".so")


_SCIPY_PROBE = """
import sys
from repro.core import LAPTOP_SCALE, run_suite
run_suite(["Cactus"], preset=LAPTOP_SCALE)
print(sorted(m for m in ("scipy.sparse", "scipy.spatial") if m in sys.modules))
"""


@needs_compiler
def test_suite_run_keeps_scipy_submodules_unimported():
    """With the kernels compiled, a Cactus run never imports
    scipy.sparse or scipy.spatial: the KD-tree serves only the
    reference path.  Probed in a fresh interpreter, since this one
    already holds both."""
    env = dict(os.environ)
    env.pop(native.ENV_DISABLE, None)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    probe = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert probe.returncode == 0, probe.stderr[-2000:]
    assert probe.stdout.splitlines()[-1] == "[]"


def test_build_tag_covers_every_kernel_source(monkeypatch):
    command = ["cc", "-O3"]
    base = native._build_tag(command)
    kernels = native._kernels()
    for index, kernel in enumerate(kernels):
        edited = list(kernels)
        edited[index] = kernel._replace(source=kernel.source + "\n")
        monkeypatch.setattr(native, "_kernels", lambda edited=edited: edited)
        assert native._build_tag(command) != base


def test_compile_reads_a_per_process_source(monkeypatch, tmp_path):
    """Concurrent builders into one empty directory must not truncate
    each other's C source: each compiles from its own per-pid file and
    removes it afterwards."""
    seen = []

    def fake_run(command, **kwargs):
        source = command[-1]
        with open(source, encoding="utf-8") as handle:
            seen.append((source, handle.read()))
        output = command[command.index("-o") + 1]
        with open(output, "wb") as handle:
            handle.write(b"")

    monkeypatch.setenv(native.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.setattr(native.shutil, "which", lambda name: "/usr/bin/cc")
    monkeypatch.setattr(native.subprocess, "run", fake_run)
    lib_path = native._compile_library()

    (source, text), = seen
    assert os.path.dirname(source) == str(tmp_path)
    assert f".{os.getpid()}." in os.path.basename(source)
    for kernel in native._kernels():
        assert kernel.source in text
    assert not os.path.exists(source)
    assert os.listdir(tmp_path) == [os.path.basename(lib_path)]
