"""Standing top-k queries: subscriptions, incremental maintenance, push.

The request/response stacks answer "what is the top-k *now*?"; this
package answers "tell me whenever it *changes*".
:meth:`QueryService.watch <repro.service.QueryService.watch>` registers
a standing query and returns a :class:`Subscription`; a
:class:`SubscriptionManager` maintains every live answer incrementally
from the database's mutation stream through the shared k-th-entry
certificate (:mod:`repro.exec.certify`), and pushes a
:class:`ResultDelta` only when the visible answer actually moves — the
communication-competitive monitoring mode of the paper setting (see
PAPERS.md on top-k position monitoring of distributed streams).

Layers:

* :mod:`repro.watch.frames` — :class:`ResultDelta` / :class:`DeltaEntry`,
  the exact diff/apply pair (a delta stream replays to the maintained
  answer bit for bit);
* :mod:`repro.watch.subscription` — the client handle: live entries,
  callback-or-poll delivery, per-outcome :class:`WatchStats`;
* :mod:`repro.watch.manager` — per-mutation classification:
  unchanged / patched / recomputed;
* :mod:`repro.watch.server` / :mod:`repro.watch.client` — server-push
  over the socket transport's length-prefixed frames (``watch`` /
  ``delta`` / ``unwatch``), FIFO-safe alongside request/response.

The pure layers above the rule import no service code; the server and
client modules (which do) load lazily so ``repro.service`` can import
this package without a cycle.
"""

from repro.watch.frames import (
    DELTA_CAUSES,
    DeltaEntry,
    ResultDelta,
    apply_delta,
    diff_results,
)
from repro.watch.manager import SubscriptionManager
from repro.watch.subscription import WATCH_OUTCOMES, Subscription, WatchStats

__all__ = [
    "DELTA_CAUSES",
    "DeltaEntry",
    "ResultDelta",
    "apply_delta",
    "diff_results",
    "SubscriptionManager",
    "WATCH_OUTCOMES",
    "Subscription",
    "WatchStats",
    "WatchServer",
    "WatchClient",
]

_LAZY = {
    "WatchServer": ("repro.watch.server", "WatchServer"),
    "WatchClient": ("repro.watch.client", "WatchClient"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
