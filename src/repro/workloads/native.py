"""One loader for the compiled workload kernels.

Every hot loop that numpy cannot express well ships its C source in the
module that uses it (the MD pair counter in
:mod:`repro.workloads.molecular.cellkernel`, the endpoint sampler's
lookup in :mod:`repro.workloads.graphs.sampling`, the edge-list
counting sort in :mod:`repro.workloads.graphs.csr`).  This module compiles
all of them into **one** shared object with the system C compiler on
first use and loads it through ``ctypes``: no third-party build
dependency, and nothing compiles or loads at import time.

* **One tag.**  The object is cached under a name derived from the
  sha256 of every kernel's source plus the compile command, so an edit
  to any kernel or flag builds a fresh object.
* **One fallback.**  A missing compiler or a failed build warns once
  (RuntimeWarning, with the reason) and :func:`load_kernel` returns
  None; each caller then takes its reference path (the KD-tree for MD
  pair counts, numpy for the graph kernels).
* **Two switches.**  ``REPRO_NO_CELLKERNEL`` disables every kernel
  silently; ``REPRO_CELLKERNEL_DIR`` redirects the build cache.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from typing import Dict, List, NamedTuple, Optional, Sequence

#: Environment switches: disable every compiled kernel (exercises the
#: reference paths), or redirect the shared-object build cache.
ENV_DISABLE = "REPRO_NO_CELLKERNEL"
ENV_CACHE_DIR = "REPRO_CELLKERNEL_DIR"

#: Compile flags.  ``-ffp-contract=off`` forbids fused multiply-adds,
#: so floating-point results round the same way on every target.
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


class Kernel(NamedTuple):
    """One kernel's C source and the ``ctypes`` argtypes of its exports.

    Every export returns a C ``int`` status (0 on success).
    """

    source: str
    argtypes: Dict[str, List]


def _kernels() -> List[Kernel]:
    """Every kernel, in build order (imported here, not at module load)."""
    from repro.workloads.graphs import csr, sampling
    from repro.workloads.molecular import cellkernel

    return [cellkernel.KERNEL, sampling.KERNEL, csr.KERNEL]


def _cache_dir() -> str:
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return override
    return os.path.join(
        tempfile.gettempdir(), f"repro-cellkernel-{os.getuid()}"
    )


def _build_tag(command: Sequence[str]) -> str:
    """Shared-object cache tag: every kernel's source plus the command."""
    digest = hashlib.sha256()
    for kernel in _kernels():
        digest.update(kernel.source.encode("utf-8") + b"\0")
    for part in command:
        digest.update(b"\0" + part.encode("utf-8"))
    return digest.hexdigest()[:16]


def _compile_library() -> str:
    """Compile every kernel to one cached shared object, or raise why not."""
    compiler = (
        shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    )
    if compiler is None:
        raise RuntimeError("no C compiler (cc, gcc or clang) on PATH")
    command = [compiler, *_CFLAGS]
    tag = _build_tag(command)
    cache_dir = _cache_dir()
    lib_path = os.path.join(cache_dir, f"native-{tag}.so")
    if os.path.exists(lib_path):
        return lib_path
    os.makedirs(cache_dir, exist_ok=True)
    # Source and object are both per-process files: concurrent builders
    # into one directory never truncate each other's input or output.
    src_path = os.path.join(cache_dir, f"native-{tag}.{os.getpid()}.c")
    tmp_path = f"{lib_path}.tmp.{os.getpid()}"
    with open(src_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(kernel.source for kernel in _kernels()))
    try:
        subprocess.run(
            [*command, "-o", tmp_path, src_path],
            check=True,
            capture_output=True,
            timeout=120,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        stderr = (exc.stderr or b"").decode("utf-8", "replace").strip()
        raise RuntimeError(f"{compiler} failed: {stderr[-400:]}") from exc
    finally:
        os.remove(src_path)
    # Atomic publish so concurrent builders never load a torn file.
    os.replace(tmp_path, lib_path)
    return lib_path


@functools.lru_cache(maxsize=1)
def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled library, building it on first call; None if unavailable.

    A missing compiler or a failed build emits one RuntimeWarning with
    the reason: every caller then runs its slower reference path.
    Disabling the kernels through ``REPRO_NO_CELLKERNEL`` is silent.
    """
    if os.environ.get(ENV_DISABLE):
        return None
    try:
        lib = ctypes.CDLL(_compile_library())
    except (RuntimeError, OSError) as exc:
        warnings.warn(
            f"compiled kernels unavailable ({exc}); MD pair counts fall "
            "back to the slower KD-tree, and graph sampling and CSR "
            "builds to numpy",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    for kernel in _kernels():
        for name, argtypes in kernel.argtypes.items():
            function = getattr(lib, name)
            function.restype = ctypes.c_int
            function.argtypes = argtypes
    return lib


#: Forget the loaded library (tests toggle the env switches).
reset_kernel_cache = load_kernel.cache_clear
