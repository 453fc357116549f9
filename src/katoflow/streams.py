"""Deterministic RNG substreams and chunked accumulation.

Monte Carlo work is split into fixed-size chunks; chunk ``k`` of an operation
tagged ``tag`` always draws from ``default_rng((seed, tag, k))``, so results
are bit-identical regardless of how many workers process the chunks.

The Kato and moment Monte Carlo means are the plain means of their raw
weights: each chunk returns ``(n, sum, sumsq)`` and ``merge_chunks`` reduces
them in chunk order.  A Feynman-Kac estimate regresses its weights on
control variates of known mean, none when its function has no free mean:
each chunk returns sums and cross sums, and ``merge_controlled`` reduces
them in chunk order too.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import PrecisionError

DEFAULT_CHUNK = 4096

# fixed per-operation stream tags; never reuse a value
TAG_TRANSITION = 1
TAG_PATH = 2
TAG_COUPLING = 3
TAG_FK = 4
TAG_KATO_MC = 5
TAG_MOMENT = 6
TAG_EXPMOMENT = 7


def combine_seed(seed, *ids):
    """Flat integer tuple addressing a derived stream family."""
    if isinstance(seed, (tuple, list)):
        base = tuple(int(s) for s in seed)
    else:
        base = (int(seed),)
    return base + tuple(int(i) for i in ids)


def substream(seed, *ids):
    """Generator for the substream addressed by (seed, *ids)."""
    return np.random.default_rng(combine_seed(seed, *ids))


def chunk_sizes(n_total, chunk=DEFAULT_CHUNK):
    """Sizes of the fixed chunk decomposition of ``n_total`` items."""
    n_total = int(n_total)
    out = []
    done = 0
    while done < n_total:
        size = min(chunk, n_total - done)
        out.append(size)
        done += size
    return out


def map_chunks(fn, n_total, seed, tag, workers=1):
    """Run ``fn(rng, size, chunk_index)`` over every chunk, in chunk order.

    Returns the list of per-chunk results ordered by chunk index, so any
    associative merge over the list is worker-count independent.
    """
    if n_total < 1:
        raise PrecisionError(f"need at least one sample, got {n_total}")

    def run(job):
        k, size = job
        return fn(substream(seed, tag, k), size, k)

    return map_ordered(run, enumerate(chunk_sizes(n_total)), workers)


def map_ordered(fn, items, workers=1):
    """``[fn(item) for item in items]``, on a thread pool when ``workers > 1``.

    Results come back in item order whichever item finishes first, and an
    exception raised by ``fn`` reaches the caller."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def merge_chunks(parts):
    """(n, means, stderrs) from per-chunk ``(n, sums, sumsqs)``, added in chunk order.

    ``sums`` and ``sumsqs`` are scalars or arrays of one shape; the sequential
    order keeps the result independent of the worker count."""
    n, sums, sqs = 0, 0.0, 0.0
    for size, s, q in parts:
        n += size
        sums = sums + np.asarray(s, dtype=float)
        sqs = sqs + np.asarray(q, dtype=float)
    means = sums / n
    stderrs = np.sqrt(np.maximum(sqs / n - means * means, 0.0) / n)
    return n, means, stderrs


def merge_controlled(parts, mu):
    """(n, means, stderrs) of weights w (k of them) controlled by c (m
    controls) of known means ``mu``, from per-chunk ``(n, sum w, sum c,
    sum w w^T, sum c c^T, sum w c^T)``, added in chunk order.

    The estimate is mean(w) - B (mean(c) - mu) with B = Cov(w, c) Cov(c)^+,
    its variance diag(Cov(w) - B Cov(c, w)) / n.  A control that never
    varies gets no weight (the pseudo-inverse).  With no control (m = 0), or
    with Cov(c) = 0, the result is the plain mean and stderr that
    ``merge_chunks`` gives, bit for bit, when ``sum w w^T`` holds on its
    diagonal the sums of squares ``merge_chunks`` would get."""
    n, sums = 0, None
    for size, *s in parts:
        n += size
        sums = s if sums is None else [a + b for a, b in zip(sums, s)]
    mean_w, mean_c, ww, cc, wc = (np.asarray(a, dtype=float) / n for a in sums)
    cov_wc = wc - np.outer(mean_w, mean_c)
    b = cov_wc @ np.linalg.pinv(cc - np.outer(mean_c, mean_c))
    means = mean_w - b @ (mean_c - mu)
    var = np.diag(ww) - mean_w * mean_w - (b * cov_wc).sum(axis=1)
    return n, means, np.sqrt(np.maximum(var, 0.0) / n)
