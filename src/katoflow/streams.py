"""Deterministic RNG substreams and chunked accumulation.

Monte Carlo work is split into fixed-size chunks; chunk ``k`` of an operation
tagged ``tag`` always draws from ``default_rng((seed, tag, k))``, so results
are bit-identical regardless of how many workers process the chunks.

Every Monte Carlo mean goes through ``merge``: each chunk returns its
per-sample weights, one row per estimated mean, followed by the control
variates of known mean, if any, and ``merge`` alone forms the sums, regresses
the weights on the controls and gives the means and stderrs, adding the
chunks in chunk order.  With no control it is the plain mean.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
# numpy loads numpy.random on first attribute use (about 13 ms); importing it
# here puts that cost in the import, not inside the first suite that draws
import numpy.random

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


def _cross_sums(a, b):
    """sum_k a[i, k] b[j, k] for every (i, j), each sum in the order that
    ``(a * a).sum(axis=1)`` takes on its diagonal."""
    return (a[:, None, :] * b[None, :, :]).sum(axis=2)


def merge(parts, mu):
    """(n, means, stderrs) of k weights w controlled by m = len(mu) controls
    c of known means ``mu``, from per-chunk 2-D arrays whose rows are the
    chunk's k weights followed by its m controls, one column per sample.

    The chunks' sums and cross sums are added in chunk order.  The estimate
    is mean(w) - B (mean(c) - mu) with B = Cov(w, c) Cov(c)^+, its variance
    diag(Cov(w) - B Cov(c, w)) / n.  A control that never varies gets no
    weight: its row and column of Cov(c) are set to 0, which its rounded
    sums need not give, and the pseudo-inverse leaves it out.  With no
    control (mu = ()) the correction is an exact 0, and the result is the
    plain mean and stderr."""
    mu = np.asarray(mu, dtype=float)
    n, sums, lo, hi = 0, None, np.inf, -np.inf
    for rows in parts:
        w, c = rows[:len(rows) - mu.size], rows[len(rows) - mu.size:]
        s = (w.sum(axis=1), c.sum(axis=1), _cross_sums(w, w),
             _cross_sums(c, c), _cross_sums(w, c))
        n += rows.shape[1]
        sums = s if sums is None else [a + b for a, b in zip(sums, s)]
        lo, hi = np.minimum(lo, c.min(axis=1)), np.maximum(hi, c.max(axis=1))
    mean_w, mean_c, ww, cc, wc = (a / n for a in sums)
    cov_wc = wc - np.outer(mean_w, mean_c)
    cov_cc = cc - np.outer(mean_c, mean_c)
    fixed = ~(lo < hi)  # a control that never varies
    cov_cc[fixed] = 0.0
    cov_cc[:, fixed] = 0.0
    b = cov_wc @ np.linalg.pinv(cov_cc)
    means = mean_w - b @ (mean_c - mu)
    var = np.diag(ww) - mean_w * mean_w - (b * cov_wc).sum(axis=1)
    return n, means, np.sqrt(np.maximum(var, 0.0) / n)
