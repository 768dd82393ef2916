import sys


def pmap_ordered(fn, items, threads=1):
    """Serial [fn(it) for it in items]; no caller in divmean, kept for perfbench/traced.py."""
    return [fn(it) for it in items]


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
