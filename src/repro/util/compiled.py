"""Shared build plumbing for the compiled kernels.

Two modules ship a native kernel with the same two-backend contract —
:mod:`repro.player._fused` (whole replay sessions) and
:mod:`repro.core._kernels` (abduction) — and this module owns the pieces
they share.  ``_fused`` compiles in the per-lane cores of
:mod:`repro.tcp._compiled` (chunk downloads) and
:mod:`repro.abr._decisions` (ABR decisions), which build nothing of
their own and report ``_fused``'s backend.  The shared pieces are:

* **cc + cffi builds** (:func:`build_cc_lib`, :class:`CcLibrary`) — when
  a C compiler and cffi are present, each kernel's line-for-line C
  transcription is compiled once per source hash into a small shared
  library (cached under ``$REPRO_COMPILED_CACHE`` or a package-local
  ``_ccache`` directory) and loaded through cffi's ABI mode.  The flags
  disable FMA contraction and fast-math so every float64 operation is
  the same correctly-rounded IEEE-754 op the Python mirror performs, in
  the same order;
* **backend naming** (:meth:`CcLibrary.backend`,
  :meth:`CcLibrary.available`) — the canonical tier names ``"cc"`` /
  ``"python"`` (:data:`BACKEND_NAMES`) every kernel module's
  ``backend()`` reports, pinned consistent across modules by
  ``tests/test_abduction_kernel.py``;
* **the degrade warning** (:func:`warn_fallback`) — one once-per-process
  ``RuntimeWarning`` per tier ladder (replay, abduction) naming the
  requested and the effective tier.  Only an explicit ``"compiled"``
  request can degrade: the default (``None``) resolves to the portable
  tier up front whenever the build does not load, and never warns.

Each kernel module keeps its own ``FORCE_PYTHON`` flag (tests monkeypatch
them independently) and its own dispatchers; only the build machinery
lives here.  ``_fused.FORCE_PYTHON`` drives the whole compiled replay
tier through its Python mirror, cores included.

Kernel contract
---------------

Every kernel module carries four coupled artefacts that must stay in
lockstep — ``repro lint`` (:mod:`repro.analysis`) enforces this shape
statically, and the rules below are the written form of what it checks.
A module may also take C fragments and their Python twins from a core
module (``_fused`` concatenates ``repro.tcp._compiled.C_DEFINES`` /
``C_HELPERS`` and ``repro.abr._decisions.C_HELPERS`` into its source and
calls the matching Python helpers from its mirror); a core module
carries the ``# repro: kernel-module`` pragma so rule ``NUM201`` checks
it like the module that compiles it in:

1. **``_CDEF``** — the cffi declaration string.  It is the single source
   of truth for kernel names, parameter names, parameter order and C
   types.  Pointer parameters are the data buffers; scalar parameters
   are hoisted to wherever the C signature wants them.
2. **The C source** — a line-for-line transcription whose function
   definitions must repeat the ``_CDEF`` parameter lists *exactly*
   (same names, same order, same types; rule ``KM102``).  It is always
   built with :data:`CC_FLAGS`, i.e. ``-fno-fast-math
   -ffp-contract=off`` (rule ``NUM202``), so each double operation is
   the same correctly-rounded IEEE-754 op the mirror performs.
3. **The Python mirror** (``_<kernel>_mirror``) — the reference
   implementation, run when no cc build is live or ``FORCE_PYTHON`` is
   set.  Its parameter names must all be declared in ``_CDEF`` and its
   pointer parameters must appear in the declared relative order
   (scalars may sit anywhere or be omitted; rule ``KM104``).  No
   function of a kernel module may call ``sum``/``math.fsum``
   (reassociating reductions diverge from the C transcription; rule
   ``NUM201``).
4. **The dispatcher** — the public function that routes to
   ``lib.<kernel>(...)`` when the cc build loaded, and to the mirror
   otherwise or under the module's ``FORCE_PYTHON`` escape hatch (rules
   ``KM101``/``KM105``).
   Its compiled-path call must pass exactly the declared arguments,
   with ``from_buffer`` casts whose dtypes match the pointer types
   (``double *`` ↔ ``"double[]"``, ``long long *`` ↔
   ``"long long[]"``; rule ``KM103``).

Supporting pragmas (all comments, all checked by ``repro lint``):
``# repro: scratch`` marks a function allocation-free (no
``np.zeros``/``np.empty``/... in the body), ``# repro: pool-worker``
marks a supervisor-dispatched worker (no ``global`` mutation),
``# repro: kernel-module`` opts a module into ``NUM201`` and, outside
``repro.{core,tcp,player,abr}``, into the no-ambient-entropy rule.  A finding that is a
deliberate exception is silenced line-scoped with
``# repro: ignore[RULE1,RULE2] -- reason``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import warnings

__all__ = [
    "HAVE_CFFI",
    "BACKEND_NAMES",
    "CC_FLAGS",
    "CcLibrary",
    "build_cc_lib",
    "cc_compiler",
    "warn_fallback",
]

try:
    import cffi

    HAVE_CFFI = True
except ImportError:  # pragma: no cover - cffi ships with the image
    cffi = None
    HAVE_CFFI = False

BACKEND_NAMES = ("python", "cc")
"""Canonical tier names every kernel module's ``backend()`` may report."""

CC_FLAGS = [
    "-O2",
    "-fPIC",
    "-shared",
    "-fno-fast-math",
    "-ffp-contract=off",
]
"""No fast-math, no FMA contraction: every double op stays the
correctly-rounded IEEE-754 operation the Python mirrors perform."""


def cc_compiler() -> str | None:
    """Path of the system C compiler, or ``None``."""
    return shutil.which("cc") or shutil.which("gcc")


def _cache_dir() -> str:
    env = os.environ.get("REPRO_COMPILED_CACHE")
    if env:
        return env
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "_ccache")


def build_cc_lib(stem: str, cdef: str, source: str):
    """Compile ``source`` once per content hash and dlopen it via cffi.

    Shared build helper for every cc+cffi kernel in the package.  Returns
    ``(lib, ffi)`` or ``None``; any failure — no compiler, no cffi, an
    unwritable cache dir, a compile error — is swallowed so callers can
    fall back to their Python mirrors.
    """
    if not HAVE_CFFI:
        return None
    cc = cc_compiler()
    if cc is None:
        return None
    try:
        tag = hashlib.sha256(source.encode()).hexdigest()[:16]
        cache = _cache_dir()
        os.makedirs(cache, exist_ok=True)
        so_path = os.path.join(cache, f"{stem}_{tag}.so")
        if not os.path.exists(so_path):
            src_path = os.path.join(cache, f"{stem}_{tag}.c")
            with open(src_path, "w", encoding="utf-8") as f:
                f.write(source)
            tmp_path = f"{so_path}.tmp{os.getpid()}"
            subprocess.run(
                [cc, *CC_FLAGS, "-o", tmp_path, src_path, "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_path, so_path)  # atomic under concurrent builds
        ffi = cffi.FFI()
        ffi.cdef(cdef)
        return ffi.dlopen(so_path), ffi
    except Exception:
        return None


class CcLibrary:
    """Build-once holder for one kernel module's cc+cffi shared library.

    The first :meth:`load` triggers the (hash-cached) build, and the
    outcome — including a failed build — is remembered for the life of the
    process.  :meth:`backend` and :meth:`available` answer the owning
    module's ``backend()`` / ``available()`` from that outcome and the
    module's ``FORCE_PYTHON`` hook.
    """

    def __init__(self, stem: str, cdef: str, source: str):
        self.stem = stem
        self.cdef = cdef
        self.source = source
        self.tried = False
        self.lib = None
        self.ffi = None

    def load(self):
        """The dlopened library, building it on first call, or ``None``."""
        if self.tried:
            return self.lib
        self.tried = True
        built = build_cc_lib(self.stem, self.cdef, self.source)
        if built is not None:
            self.lib, self.ffi = built
        return self.lib

    def backend(self, force_python: bool) -> str:
        """The owning module's backend name: ``"python"`` under its
        ``FORCE_PYTHON`` hook or when the build fails, else ``"cc"``."""
        if force_python or self.load() is None:
            return "python"
        return "cc"

    def available(self, force_python: bool) -> bool:
        """Whether the owning module's compiled tier can serve requests.

        ``FORCE_PYTHON`` counts as available so parity tests can drive
        the mirror end to end; otherwise only a loaded cc build does.
        """
        return force_python or self.load() is not None


_FALLBACK_WARNED: set[str] = set()
"""Tier ladders that have already warned; clear it in tests to re-arm."""


def warn_fallback(ladder: str, requested: str, effective: str) -> None:
    """Warn, once per process per ``ladder``, that a compiled tier degraded.

    The degrade itself is by design — the effective tier keeps the parity
    contract — but operators asking for ``requested`` should see the
    ``effective`` tier in their logs.  It fires only for an explicit
    ``"compiled"`` request: a default (``None``) tier resolves to what
    the machine can serve before any kernel runs.  ``stacklevel`` points
    at the caller of the function that detected the degrade.
    """
    if ladder in _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED.add(ladder)
    warnings.warn(
        f'{ladder} kernel "{requested}" requested but no compiled backend '
        f'(cc+cffi) is available; falling back to the "{effective}" '
        "tier (the parity contract holds; only throughput drops). This "
        "warning is emitted once per process.",
        RuntimeWarning,
        stacklevel=3,
    )
