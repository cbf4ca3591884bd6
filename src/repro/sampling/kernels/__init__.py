"""Pluggable walk-kernel backends behind the bit-identity contracts.

The walk hot path — :meth:`RandomWalkEngine._advance` (one lock-step
transition) and :meth:`RandomWalkEngine._scores_block` (the fused
step-and-score slab kernel) — is factored into swappable *backends*:

* :mod:`repro.sampling.kernels.numpy_backend` is the reference
  implementation (always available): lock-step numpy gathers, with scores
  summed in eight lane vectors that replay numpy's pairwise sum.
* :mod:`repro.sampling.kernels.numba_backend` compiles the same
  arithmetic with ``numba.njit`` — including the Vose alias draw for
  weighted graphs and NumPy's pairwise-summation tree — so
  float results stay **bit-identical** to the numpy backend (DESIGN.md
  Contract 9).  It is optional: ``pip install repro[compiled]``.

Backend selection is a *string* that travels with ``QueryBudget``
(``kernel_backend = "auto" | "numpy" | "numba"``):

* ``"numpy"`` — always the reference kernels.
* ``"numba"`` — the compiled kernels; when numba is missing or
  compilation fails, fall back to numpy with a **one-time**
  :class:`RuntimeWarning` (the answer is the same either way — Contract
  9 — so a warning, not an error).
* ``"auto"`` — numba when importable (silently numpy otherwise); a
  *compilation* failure of an importable numba still warns once, since
  that usually means a broken install worth surfacing.  The
  ``REPRO_KERNEL_BACKEND`` environment variable overrides ``"auto"``
  resolution (used by the CI with-numba leg to force the compiled path).

Every resolution is cached: backends are stateless singletons and the
numba import/compile cost is paid at most once per process.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

#: Leaf size of NumPy's pairwise-summation tree (``PW_BLOCKSIZE`` in
#: numpy/_core/src/umath/loops_utils.h.src).  :func:`_pairwise_plan` cuts a
#: walk into leaves of at most this many steps and every backend sums a leaf
#: as NumPy does, so scores match ``weights[walk_matrix].sum(axis=1)``.
_PAIRWISE_BLOCK = 128

#: Valid values for ``QueryBudget.kernel_backend`` / ``--kernel-backend``.
KERNEL_BACKENDS = ("auto", "numpy", "numba")

#: Environment override consulted when resolving ``"auto"`` (CI's
#: with-numba leg sets ``REPRO_KERNEL_BACKEND=numba`` to force the
#: compiled path through every suite without threading a flag anywhere).
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"


def _pairwise_plan(length: int) -> tuple[list[int], list[int]]:
    """Leaf lengths and post-merge counts of NumPy's pairwise-sum recursion.

    ``np.add.reduce`` over a contiguous axis of ``length`` elements splits the
    range recursively (``n2 = (n // 2) - (n // 2) % 8`` on the left) until a
    leaf of at most :data:`_PAIRWISE_BLOCK` elements remains, then combines
    partial sums bottom-up as ``left + right``.  The returned ``merges[i]``
    says how many stack merges to perform after leaf ``i`` completes, which
    lets a streaming kernel reproduce the exact reduction tree with
    ``O(log(length))`` partial-sum vectors.
    """
    leaves: list[int] = []
    merges: list[int] = []

    def recurse(n: int) -> None:
        if n <= _PAIRWISE_BLOCK:
            leaves.append(n)
            merges.append(0)
            return
        n2 = (n // 2) - ((n // 2) % 8)
        recurse(n2)
        recurse(n - n2)
        merges[-1] += 1

    if length > 0:
        recurse(length)
    return leaves, merges


@dataclass(frozen=True)
class WalkKernelState:
    """Immutable per-engine CSR views handed to every backend call.

    Plain arrays (no Graph object) so compiled backends can consume the
    state directly and so the contract between engine and backend is
    exactly "these arrays, this arithmetic".
    """

    indptr: np.ndarray          # int64, length n+1
    indices: np.ndarray         # int64, length m
    degrees_float: np.ndarray   # float64, length n
    uniform_degree: Optional[int]   # set iff unweighted with one global degree
    alias_prob: Optional[np.ndarray]    # float64 CSR-aligned (weighted only)
    alias_node: Optional[np.ndarray]    # int64 CSR-aligned (weighted only)

    @property
    def weighted(self) -> bool:
        return self.alias_prob is not None


class KernelUnavailableError(ImportError):
    """The requested compiled backend cannot be provided on this host."""


# --------------------------------------------------------------------------- #
# resolution + fallback
# --------------------------------------------------------------------------- #
_NUMBA_BACKEND: Optional[Any] = None
_NUMBA_ERROR: Optional[str] = None
_NUMBA_IMPORT_MISSING = False
_WARNED: set[str] = set()


def _warn_once(key: str, message: str) -> None:
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _load_numba_backend() -> Optional[Any]:
    """Import + compile the numba backend once; cache the outcome either way."""
    global _NUMBA_BACKEND, _NUMBA_ERROR, _NUMBA_IMPORT_MISSING
    if _NUMBA_BACKEND is not None or _NUMBA_ERROR is not None:
        return _NUMBA_BACKEND
    try:
        from repro.sampling.kernels import numba_backend

        _NUMBA_BACKEND = numba_backend.load()
    except KernelUnavailableError as exc:
        _NUMBA_ERROR = f"numba is not installed ({exc})"
        _NUMBA_IMPORT_MISSING = True
    except Exception as exc:  # pragma: no cover - depends on numba install
        _NUMBA_ERROR = f"numba kernel compilation failed: {type(exc).__name__}: {exc}"
        _NUMBA_IMPORT_MISSING = False
    return _NUMBA_BACKEND


def resolve_backend(name: str = "auto") -> Any:
    """Return the backend object for ``name``, applying the fallback rules.

    Never raises on an unavailable backend — by Contract 9 the numpy
    fallback computes the same bits — but warns once per process when the
    caller explicitly asked for ``"numba"`` (or when an importable numba
    fails to compile, even under ``"auto"``).  Unknown names raise
    ``ValueError`` eagerly: that is a configuration typo, not a missing
    accelerator.
    """
    from repro.sampling.kernels.numpy_backend import NUMPY_BACKEND

    if name is None:
        name = "auto"
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {KERNEL_BACKENDS}"
        )
    if name == "auto":
        env = os.environ.get(KERNEL_BACKEND_ENV, "").strip().lower()
        if env in KERNEL_BACKENDS:
            name = env
    if name == "numpy":
        return NUMPY_BACKEND
    backend = _load_numba_backend()
    if backend is not None:
        return backend
    if name == "numba":
        # explicit request (budget/CLI/config/env said "numba") — warn once
        _warn_once(
            "explicit-numba",
            f"kernel_backend='numba' requested but unavailable: {_NUMBA_ERROR}; "
            "falling back to the bit-identical numpy kernels",
        )
    elif not _NUMBA_IMPORT_MISSING:
        # auto mode found numba importable but broken — surface that once too
        _warn_once(
            "auto-compile-failure",
            f"{_NUMBA_ERROR}; falling back to the bit-identical numpy kernels",
        )
    return NUMPY_BACKEND


def active_backend_name(name: str = "auto") -> str:
    """The backend :func:`resolve_backend` would actually hand out."""
    return resolve_backend(name).name


def backend_status() -> dict[str, dict[str, Any]]:
    """Availability report for ``repro-er methods`` / service summaries."""
    _load_numba_backend()
    return {
        "numpy": {"available": True, "error": None},
        "numba": {"available": _NUMBA_BACKEND is not None, "error": _NUMBA_ERROR},
    }


def _reset_for_tests() -> None:
    """Forget cached resolution + one-time warnings (test hook)."""
    global _NUMBA_BACKEND, _NUMBA_ERROR, _NUMBA_IMPORT_MISSING
    _NUMBA_BACKEND = None
    _NUMBA_ERROR = None
    _NUMBA_IMPORT_MISSING = False
    _WARNED.clear()


__all__ = [
    "KERNEL_BACKENDS",
    "KERNEL_BACKEND_ENV",
    "KernelUnavailableError",
    "WalkKernelState",
    "active_backend_name",
    "backend_status",
    "resolve_backend",
]
