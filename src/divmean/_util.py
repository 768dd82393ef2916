import itertools
import math

CHUNK = 1 << 14  # entries per Python list, walk block and series window: bounds their temporaries
EULER_GAMMA = 0.5772156649015329  # float(np.euler_gamma), without loading numpy
EXP_NEG_GAMMA = math.exp(-EULER_GAMMA)
EXP_NEG_2GAMMA = math.exp(-2.0 * EULER_GAMMA)


def pmap_ordered(fn, items, threads=1):
    """Serial [fn(it) for it in items]; no caller in divmean, kept for perfbench/traced.py."""
    return [fn(it) for it in items]


def write_lines(fh, values):
    """Write an integer array one decimal per line, one format per chunk; returns its length."""
    for i in range(0, len(values), CHUNK):
        chunk = values[i : i + CHUNK].tolist()
        fh.write(("%d\n" * len(chunk)) % tuple(chunk))
    return len(values)


def fsum(a, f=lambda i, chunk: chunk):
    """math.fsum over the arrays f(i, a[i : i + CHUNK]), i = 0, CHUNK, ...; by default over a.

    Each array becomes a list in turn, so no list of the whole of a is built.
    """
    parts = (f(i, a[i : i + CHUNK]).tolist() for i in range(0, len(a), CHUNK))
    return math.fsum(itertools.chain.from_iterable(parts))


def fmt15(x):
    """Fixed 15-significant-digit float formatting for golden-file output."""
    return f"{float(x):.15g}"
