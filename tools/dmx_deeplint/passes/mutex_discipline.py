"""mutex-discipline: every engine lock is visible to thread-safety analysis.

Two rules:

  * raw — std::mutex, std::condition_variable, std::lock_guard and the
    other std:: primitives are invisible to Clang Thread Safety Analysis;
    engine code uses dmx::Mutex / MutexLock / CondVar
    (src/util/thread_annotations.h, the one file allowed to wrap them).
  * unguarded — a member Mutex must guard something: the same file names
    it in a GUARDED_BY / REQUIRES / ACQUIRE / RELEASE annotation, or the
    analysis has nothing to check it against. The match is on the lock's
    class as well as its name, so another class's `mu_` does not count.

The member mutexes are the ones the frontend records in ClassInfo.mutexes.
"""

from __future__ import annotations

from model import Finding

RULE = "mutex-discipline"


def run(models, ctx):
    findings = []
    for tu in models:
        for line, prim in tu.raw_mutexes:
            findings.append(Finding(
                tu.path, line, RULE,
                f"std::{prim} is invisible to thread-safety analysis; use "
                "dmx::Mutex / MutexLock / CondVar from "
                "src/util/thread_annotations.h"))
        for line, cls, name in tu.member_mutexes:
            if f"{cls}::{name}" not in tu.lock_annotated:
                findings.append(Finding(
                    tu.path, line, RULE,
                    f"member Mutex {cls}::{name} guards nothing: annotate "
                    "the protected members with GUARDED_BY or the helpers "
                    f"with REQUIRES({name})"))
    return findings
