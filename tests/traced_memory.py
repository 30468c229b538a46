"""Peak traced memory of one call, for the tests' memory bounds."""

import tracemalloc


def traced_peak(fn, *args):
    """(peak bytes traced while ``fn(*args)`` runs, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
