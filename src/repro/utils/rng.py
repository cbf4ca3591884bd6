"""Random number generator helpers.

Every stochastic routine in the library accepts either a seed, an existing
:class:`numpy.random.Generator`, or ``None`` (fresh entropy).  Centralising the
conversion keeps behaviour consistent and makes experiments reproducible.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` (fresh OS entropy), an integer seed, a ``SeedSequence`` or an
        already-constructed ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    raise TypeError(f"cannot interpret {type(rng).__name__!r} as a random generator")


def spawn_generators(rng: RngLike, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent child generators.

    Useful when an experiment runs several estimators that should not share a
    random stream (so that re-ordering one does not perturb the others).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    parent = as_generator(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def derive_seed(rng: RngLike, *labels: int) -> int:
    """Derive a deterministic child seed from ``rng`` and a tuple of int labels.

    The same parent seed and labels always yield the same child seed, in
    every process, which allows per-query reproducibility inside large
    sweeps and across worker processes.  Labels must be integers (``bool``
    and numpy integers included): ``str`` hashes are salted per interpreter,
    so anything else raises ``TypeError``.
    """
    return derive_seeds(rng, [labels])[0]


def derive_seeds(rng: RngLike, label_rows: Iterable[Sequence[int]]) -> list[int]:
    """``derive_seed(rng, *labels)`` for each row of labels, from one base draw.

    Equal to per-row ``derive_seed`` calls for an int seed, without building a
    generator per row (a :class:`Generator` ``rng`` gives one draw in all).
    """
    base = int(as_generator(rng).integers(0, 2**31 - 1))
    seeds = []
    for labels in label_rows:
        mix = base
        for label in labels:
            if not isinstance(label, (int, np.integer)):
                raise TypeError(
                    f"derive_seed labels must be integers, got {type(label).__name__}"
                )
            mix = hash((mix, label)) & 0x7FFFFFFF
        seeds.append(mix)
    return seeds


def skip_doubles(rng: np.random.Generator, count: int) -> bool:
    """Move ``rng`` past ``count`` ``rng.random()`` doubles without drawing them.

    Returns whether the generator can do so exactly; ``count=0`` only asks.
    Only PCG64 and PCG64DXSM qualify: their ``advance(k)`` steps the stream
    by k 64-bit outputs, one per double.  Philox's ``advance`` counts blocks
    of four outputs, and MT19937 and SFC64 have none — for those nothing
    moves and the caller must draw.  ``advance`` also clears the buffered
    32-bit half (``has_uint32``/``uinteger``) that drawing doubles leaves
    alone, so the skip puts it back: the state afterwards equals drawing.
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        return False
    if count:
        before = bit_generator.state
        bit_generator.advance(count)
        after = bit_generator.state
        after["has_uint32"] = before["has_uint32"]
        after["uinteger"] = before["uinteger"]
        bit_generator.state = after
    return True


def random_choice_csr(
    rng: np.random.Generator,
    indptr: np.ndarray,
    indices: np.ndarray,
    nodes: np.ndarray,
    *,
    degrees: Optional[np.ndarray] = None,
    checked: bool = True,
) -> np.ndarray:
    """Sample one uniform neighbour for each node in ``nodes``.

    ``indptr``/``indices`` describe a CSR adjacency structure.  The operation is
    fully vectorised: for node ``v`` with degree ``d(v)`` a uniform offset in
    ``[0, d(v))`` is drawn — one ``rng.random`` call for the whole batch — and
    used to index the CSR ``indices`` array.

    Parameters
    ----------
    degrees:
        Optional precomputed per-node degree array (``float64``, length ``n``).
        When given, the per-call ``indptr`` subtraction is replaced by a single
        gather; the drawn offsets are bit-identical either way (degrees are
        exact in ``float64``).
    checked:
        When false, the isolated-node guard is skipped.  Callers that have
        already validated the graph (e.g. the walk engine, whose constructor
        rejects graphs with isolated nodes) avoid an O(batch) scan per step.
    """
    starts = indptr[nodes]
    if degrees is None:
        node_degrees = (indptr[nodes + 1] - starts).astype(np.float64)
    else:
        node_degrees = degrees[nodes]
    if checked and np.any(node_degrees == 0):
        raise ValueError("cannot sample a neighbour of an isolated node")
    draws = rng.random(len(nodes))
    draws *= node_degrees
    offsets = draws.astype(np.int64)
    # The clamp to degree - 1 never fires for Generator.random() draws (the
    # largest, 1 - 2**-53, times an integer d < 2**53 rounds below d); it stays
    # in this reference step the fused walk kernel is tested against.
    # Truncation == floor for these non-negative products, so the offsets
    # match the historical floor-then-cast kernel bit-for-bit.
    np.minimum(offsets, node_degrees.astype(np.int64) - 1, out=offsets)
    return indices[starts + offsets]


__all__ = [
    "RngLike", "as_generator", "spawn_generators", "derive_seed", "derive_seeds",
    "skip_doubles", "random_choice_csr",
]
