"""REP103/REP104 — result-store keys derive from provenance, nothing else.

The content-addressed result store promises that a campaign point's
fingerprint is a pure function of its *provenance* — codec, fault
model, voltage, seeds, workload.  Warm hits are then exactly
the runs a cold machine would execute, on any host, in any process, at
any time.  The promise dies the moment key-path code consults a wall
clock, the OS entropy pool, or host/process identity: the same
campaign point would fingerprint differently per run, silently turning
every lookup into a miss (or worse, colliding distinct points).

Both rules share one taint pass (:mod:`repro.check.flow.taint`) rooted
at every function of ``repro.store`` plus every function named like a
fingerprint deriver (``fingerprint*``) elsewhere:

* **REP103** flags impure touches physically *inside* ``repro.store``
  — the intra-module purity check, as before, now also covering
  helpers only reachable through other store functions;
* **REP104** flags impure touches *outside* ``repro.store`` that the
  key path reaches transitively — an impure utility in another package
  poisons every fingerprint that calls through it, and the finding's
  call chain shows exactly how the store gets there.

Flagged sources:

* wall-clock reads (``time.time``, ``datetime.now``, ... — the REP301
  taxonomy, reused verbatim);
* OS entropy (``os.urandom``, ``uuid.uuid4``, ``secrets.*`` — ditto);
* host/process identity (``os.getpid``/``getppid``, ``os.uname``,
  ``socket.gethostname``/``getfqdn``, ``platform.node``,
  ``getpass.getuser``) — a fingerprint that encodes *where* it was
  computed is not content-addressed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.check.rules import Rule, _in_repro_src, register
from repro.check.rules.determinism import (
    _OS_ENTROPY,
    _WALL_CLOCK,
    _render_via,
)

if TYPE_CHECKING:
    from repro.check.engine import FileContext, Finding, Project
    from repro.check.flow.taint import Touch

#: Host/process identity sources; meaningless in a content address.
_IDENTITY = frozenset(
    {
        "os.getpid",
        "os.getppid",
        "os.uname",
        "socket.gethostname",
        "socket.getfqdn",
        "platform.node",
        "getpass.getuser",
    }
)

#: Shared cache id for the one taint pass both rules consume.
_TAINT_ID = "store-purity"

_STORE_ROOT_PREFIXES = ("repro.store",)
_EXTRA_ROOT_NAMES = ("fingerprint",)

_CATEGORY_TEXT = {
    "wall-clock": "reads the wall clock",
    "os-entropy": "draws OS entropy",
    "identity": "reads host/process identity",
}


def _taint_sources() -> dict[str, str]:
    sources = {name: "wall-clock" for name in _WALL_CLOCK}
    sources.update({name: "os-entropy" for name in _OS_ENTROPY})
    sources.update({name: "identity" for name in _IDENTITY})
    return sources


def _store_taint(project: Project) -> dict[str, list["Touch"]]:
    from repro.check.flow.project import BARRIER_MODULES
    from repro.check.flow.taint import TaintSpec

    return project.flow().taint(
        _TAINT_ID,
        _STORE_ROOT_PREFIXES,
        TaintSpec(
            sources=_taint_sources(),
            flag_set_iteration=False,
            barrier_modules=BARRIER_MODULES,
        ),
        extra_root_names=_EXTRA_ROOT_NAMES,
    )


def _in_store(module: str) -> bool:
    return module == "repro.store" or module.startswith("repro.store.")


@register
class StoreKeyProvenanceRule(Rule):
    id = "REP103"
    name = "nonprovenance-store-key"
    summary = (
        "repro.store modules must not read wall clocks, OS entropy, or "
        "host/process identity — cache keys derive from provenance only"
    )

    def applies_to(self, file: FileContext) -> bool:
        return _in_store(file.module)

    def check(
        self, file: FileContext, project: Project
    ) -> Iterator[Finding]:
        for touch in _store_taint(project).get(file.rel_path, ()):
            verb = _CATEGORY_TEXT.get(touch.category, "is impure")
            yield self.finding(
                file,
                touch.lineno,
                touch.col,
                f"{touch.source} {verb} in repro.store"
                f"{_render_via(touch.chain)}; content-addressed keys "
                "and stored payloads must derive from campaign "
                "provenance only",
            )


@register
class TransitiveStoreImpurityRule(Rule):
    id = "REP104"
    name = "impure-store-key-dependency"
    summary = (
        "helpers reachable from the store's key-derivation path must "
        "stay pure — impurity anywhere on the chain poisons the key"
    )

    def applies_to(self, file: FileContext) -> bool:
        return _in_repro_src(file) and not _in_store(file.module)

    def check(
        self, file: FileContext, project: Project
    ) -> Iterator[Finding]:
        for touch in _store_taint(project).get(file.rel_path, ()):
            verb = _CATEGORY_TEXT.get(touch.category, "is impure")
            yield self.finding(
                file,
                touch.lineno,
                touch.col,
                f"{touch.source} {verb} in a function the store's "
                f"key path reaches transitively "
                f"{_render_via(touch.chain).strip() or '(direct)'}; "
                "a fingerprint computed through this call is not "
                "content-addressed",
            )
