"""Seeded request mix for the ``serve-mixed`` workload.

Every request is a ``repro campaign`` job spec at default flags
(typical access law, reference engine) on a 16-point FFT with one or
two runs per point, small enough that a run serves a few hundred
requests on two cores.  These sizes and the equal shares of the kinds
are chosen for that, not taken from measured use; the documented use
is ``runs=4`` grids on the default 64-point FFT.  Four kinds of
request exercise different parts of the serving path:

``fresh``    a two-point grid whose points are all new: store misses.
``overlap``  one point of an earlier grid plus one new point: a store
             hit next to a store put.
``extend``   an earlier one-run spec with two runs: a miss today, because
             the store's unit is a whole campaign point.
``repeat``   an exact repeat of an earlier spec: answered by the
             server's job table (submit-level deduplication).

Requests come in blocks holding every (kind, scheme) pair once, in an
order drawn from the seed, and overlaps and extensions only build on
one-run specs.  The work of each (kind, scheme) pair is then fixed, so
the work of a run depends on the seed as little as possible.

Request ``i`` only refers back to requests at least ``clients``
positions earlier.  Clients take requests in order, one at a time, so
such a request has always been answered before it is referred to.
"""

from __future__ import annotations

import random

KINDS = ("fresh", "overlap", "extend", "repeat")
#: The unprotected scheme is left out: its requests cost a tenth of the
#: others, so the median latency would sit on the boundary between two
#: groups of requests and jump between them from seed to seed.
SCHEMES = ("secded", "ocean")
FFT_POINTS = 16
#: Supply points new grid points draw from (V); each is used once.  A
#: request takes 0.75 of them on average, so the pool lasts for 3200
#: requests: several times what a run serves today, so that a faster
#: server does not run out.
VDD_POOL = tuple(round(0.300 + 0.00025 * k, 5) for k in range(2400))


class Traffic:
    """Deterministic, lazily extended request sequence for one seed."""

    def __init__(self, seed: int, clients: int = 2) -> None:
        self.clients = clients
        self.campaign_seed = 100 + 1000 * seed
        self._rng = random.Random(f"serve-mixed/{seed}")
        self._vdds = list(VDD_POOL)
        self._rng.shuffle(self._vdds)
        self._block: list[tuple[str, str]] = []
        self._requests: list[tuple[str, dict]] = []

    def __getitem__(self, index: int) -> tuple[str, dict]:
        """``(kind, spec)`` of request ``index``."""
        while len(self._requests) <= index:
            self._requests.append(self._next())
        return self._requests[index]

    def _next(self) -> tuple[str, dict]:
        rng = self._rng
        if not self._block:
            self._block = [(kind, scheme) for scheme in SCHEMES for kind in KINDS]
            rng.shuffle(self._block)
        kind, scheme = self._block.pop()
        settled = self._requests[: max(0, len(self._requests) - self.clients + 1)]
        earlier = [s for k, s in settled if k != "repeat" and s["scheme"] == scheme]
        one_run = [s for s in earlier if s["runs"] == 1]
        issued = [s for _, s in self._requests]
        unextended = [s for s in one_run if dict(s, runs=2) not in issued]
        if not one_run or (kind == "extend" and not unextended):
            kind = "fresh"
        if len(self._vdds) < 2:
            raise RuntimeError("serve-mixed ran out of fresh supply points")
        if kind == "fresh":
            spec = {
                "scheme": scheme,
                "vdds": [self._vdds.pop(), self._vdds.pop()],
                "runs": 1,
                "fft": FFT_POINTS,
                "seed": self.campaign_seed,
            }
        elif kind == "overlap":
            base = rng.choice(one_run)
            spec = dict(base, vdds=[rng.choice(base["vdds"]), self._vdds.pop()])
        elif kind == "extend":
            spec = dict(rng.choice(unextended), runs=2)
        else:
            spec = dict(rng.choice(earlier))
        return kind, spec
