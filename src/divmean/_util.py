import os
import sys
from concurrent.futures import ThreadPoolExecutor

THREADS_ENV = "DIVMEAN_THREADS"


def default_threads():
    raw = os.environ.get(THREADS_ENV, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def pmap_ordered(fn, items, threads=1):
    """Map fn over items, preserving input order in the result.

    Work may run on a thread pool but the returned list is always
    [fn(items[0]), fn(items[1]), ...] so downstream output is
    byte-identical regardless of thread count.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def write_lines(fh, values):
    """Write an integer array one decimal per line, in joined chunks; returns its length."""
    for i in range(0, len(values), 1 << 16):
        fh.write("\n".join(map(str, values[i : i + (1 << 16)].tolist())))
        fh.write("\n")
    return len(values)


def fmt15(x):
    """Fixed 15-significant-digit float formatting for golden-file output."""
    return f"{float(x):.15g}"


def progress(msg):
    # stdout stays machine-parseable; diagnostics go to stderr
    print(msg, file=sys.stderr, flush=True)
