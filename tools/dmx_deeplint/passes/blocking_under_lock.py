"""blocking-under-lock: no syscalls/sleeps/waits while a hot mutex is held.

Flags, at every call site where at least one mutex is held:
  * calls to a configured set of blocking functions (fsync, sleep_for, ...)
  * any method call through a receiver whose declared type is a configured
    blocking interface (Env, RandomAccessFile, ...) — the whole Env surface
    is disk I/O
  * CondVar waits while holding a mutex *other than* the one the condvar
    is bound to (Wait releases its own mutex, not the outer one)

The pattern the tree is expected to follow is the group-commit leader's:
snapshot state under the lock, release, do the I/O, relock to publish.
A site that genuinely must hold its lock across I/O (e.g. a file's own
serialization mutex) carries `// deeplint: allow(blocking-under-lock,
reason)` and is audited in docs/LOCK_ORDER.md reviews.
"""

from __future__ import annotations

from model import Finding

RULE = "blocking-under-lock"

DEFAULT_BLOCKING_FUNCTIONS = (
    "fsync", "fdatasync", "sync", "syncfs", "sleep", "usleep",
    "nanosleep", "sleep_for", "sleep_until", "system", "flock",
    "waitpid", "select", "poll", "epoll_wait",
)
DEFAULT_BLOCKING_RECEIVER_TYPES = (
    "Env", "RandomAccessFile", "PageFile",
)
# Smart-pointer plumbing on a blocking-typed member, not I/O itself.
POINTER_METHODS = frozenset(("reset", "get", "release", "swap", "owner"))


def run(models, ctx):
    cfg = ctx.config.get("blocking", {})
    fns = frozenset(cfg.get("functions", DEFAULT_BLOCKING_FUNCTIONS))
    recv_types = frozenset(
        cfg.get("receiver_types", DEFAULT_BLOCKING_RECEIVER_TYPES))
    findings = []
    for tu in models:
        for fn in tu.functions:
            # A waiver on the function's signature line covers the whole
            # body — cold paths (open/recovery/close) that serialize I/O
            # under their own mutex by design take one reasoned waiver
            # instead of one per call.
            if ctx.is_suppressed(tu.path, fn.line, RULE):
                continue
            for call in fn.calls:
                if not call.held:
                    continue
                blocking = None
                if call.name in fns:
                    blocking = f"blocking call {call.expr}()"
                elif call.recv_type is not None and \
                        call.name not in POINTER_METHODS and (
                        call.recv_type in recv_types or
                        call.recv_type.rsplit("::", 1)[-1] in recv_types):
                    blocking = (f"{call.recv_type} I/O "
                                f"{call.expr}()")
                if blocking is None:
                    continue
                held = ", ".join(
                    f"{l} (held since line {call.held_lines.get(l, '?')})"
                    for l in call.held)
                findings.append(Finding(
                    tu.path, call.line, RULE,
                    f"{blocking} while holding {held} in {fn.qual}: "
                    "release the mutex across the operation (snapshot "
                    "-> unlock -> I/O -> relock), or waive with a "
                    "reason"))
            for w in fn.waits:
                others = [l for l in w.held if l != w.mutex]
                if w.mutex is not None and others:
                    findings.append(Finding(
                        tu.path, w.line, RULE,
                        f"CondVar wait on {w.cv} (bound to {w.mutex}) "
                        f"while also holding {', '.join(others)} in "
                        f"{fn.qual}: Wait only releases its own mutex — "
                        "the outer lock is held for the whole sleep"))
    return findings
