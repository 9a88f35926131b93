"""The methods a protocol variant may override.

Every variant — a baseline of ``repro.core.baselines`` or a mutant of
``repro.check.mutants`` — is a :class:`KOptimisticProcess` subclass.  The
hooks section of ``core/protocol.py`` lists the methods they override;
this guard fails, naming the class, when one overrides another, and when
a listed hook is overridden by nobody any more.  Widening the interface
is a decision: make it here and in that section together.
"""

import importlib
import pkgutil

import repro.check.mutants
import repro.core.baselines
from repro.core.protocol import KOptimisticProcess

HOOKS = {
    # The factories and predicates.
    "_new_vector", "_state_orphaned_by", "_post_delivery_effects",
    "_piggyback_vector", "_deliverable", "_is_orphan_message",
    "_nullify_stable_tdv_entries",
    # Steps of the routines.
    "_check_send_buffer", "_enqueue_output", "_release", "_rollback",
    "_recover_tables", "_take_back_buffers",
    # Whole routines and the construction.
    "__init__", "flush", "notify", "checkpoint", "crash", "restart",
    "on_log_notifications", "on_logging_request", "unacked_count",
}


def variants():
    for module in pkgutil.iter_modules(repro.core.baselines.__path__):
        importlib.import_module(f"repro.core.baselines.{module.name}")
    assert repro.check.mutants.MUTANTS
    found, todo = [], [KOptimisticProcess]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return found


def overrides(cls):
    inherited = {name for klass in KOptimisticProcess.__mro__[:-1]
                 for name in vars(klass)}
    return {name for name in vars(cls) if name in inherited
            and (name == "__init__" or not name.startswith("__"))}


def test_variants_override_only_the_listed_hooks():
    offenders = {f"{cls.__module__}.{cls.__qualname__}":
                 sorted(overrides(cls) - HOOKS) for cls in variants()}
    offenders = {name: extra for name, extra in offenders.items() if extra}
    assert not offenders, f"overrides outside the hooks: {offenders}"


def test_every_listed_hook_is_overridden_by_some_variant():
    used = set().union(*(overrides(cls) for cls in variants()))
    assert HOOKS - used == set()
