"""direct-dispatch: entry points are called through the registered vector.

Cross-extension work must go through the registry's procedure vectors
(registry->sm_ops/at_ops), never by calling a sibling's accessor
directly (`HeapStorageMethodOps().insert(...)`): that bypasses dispatch
metrics, quarantine and the registry's view of which extensions exist.
Copying a vector to inherit from it is fine. Found on the token stream,
so a call split across lines or wrapped in comments is still seen.

Whether each vector is complete is not a lint question: registration
(ExtensionRegistry::Register*) checks every finished vector, in-tree or
not, and refuses an incomplete one.
"""

from __future__ import annotations

from model import Finding

RULE = "direct-dispatch"


def run(models, ctx):
    return [Finding(tu.path, d.line, RULE,
                    f"direct dispatch {d.expr}: entry points must go "
                    "through the registered vector (registry->sm_ops/"
                    "at_ops), never a sibling's accessor")
            for tu in models for d in tu.dispatches]
