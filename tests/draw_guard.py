"""One guard for "refused before any draw or read".

Every random stream of the library is a ``numpy.random.default_rng`` built
by ``rng.substream``, and every data file is read by
``reportio.read_sample_csv``.  ``forbid_draws`` makes the first a
generator whose every draw raises, and the second raise, so no draw path
can pass unseen, whichever module or alias it runs through.
"""

import numpy as np


def forbid_draws(monkeypatch, error=None, reads=True) -> list:
    """Until ``monkeypatch`` undoes it, any draw from a stream built from now
    on raises ``error`` (an AssertionError by default), and so does any read
    of a sample file unless ``reads`` is False.  Returns the list of what
    was drawn or read, which stays empty while nothing is."""
    calls = []

    def fail(name):
        calls.append(name)
        raise error if error is not None else AssertionError(f"{name} ran")

    class NoDraws:  # a stream that is built is no draw; reading from it is
        def __getattr__(self, name):
            fail(f"Generator.{name}")

    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: NoDraws())
    if reads:
        monkeypatch.setattr("tailvc.reportio.read_sample_csv",
                            lambda *args, **kwargs: fail("read_sample_csv"))
    return calls
