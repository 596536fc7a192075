#!/usr/bin/env python3
"""CTest driver for tools/dmx_deeplint.

Usage: deeplint_test.py <repo-root>

Asserts:
  1. the real src/ tree is clean and docs/LOCK_ORDER.md matches the
     lock-order graph derived from it (doc drift fails), and so are
     tools/, bench/ and examples/;
  2. the broken fixtures are flagged: the lock cycle, each
     blocking-under-lock shape (PageFile I/O and the WAL hook under the
     pool latch included), each status-discipline shape, the direct
     sibling dispatch, and each mutex-discipline shape (an unguarded
     member Mutex is found by class, not by bare name);
  3. a reasoned allow() silences its finding, a reasonless one is
     itself a [suppression] finding, and --no-suppressions reports
     waived findings again.

Procedure-vector completeness is checked by registration, not here
(tests/registry_test.cc).
"""

import subprocess
import sys
from pathlib import Path


def run(tool, *argv):
    proc = subprocess.run(
        [sys.executable, str(tool)] + [str(a) for a in argv],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(sys.argv[1]).resolve()
    deeplint = root / "tools" / "dmx_deeplint" / "deeplint.py"
    fixtures = root / "tests" / "lint" / "fixtures" / "deeplint"
    failures = []

    # 1. Real tree clean; the checked-in lock hierarchy is current.
    rc, out = run(deeplint, "--check-lock-order",
                  root / "docs" / "LOCK_ORDER.md", root / "src")
    if rc != 0:
        failures.append(f"src/ should deeplint clean with a current "
                        f"docs/LOCK_ORDER.md, got rc={rc}:\n{out}")
    rc, out = run(deeplint, *(root / d for d in ("tools", "bench",
                                                 "examples")))
    if rc != 0:
        failures.append(f"tools/, bench/ and examples/ should deeplint "
                        f"clean, got rc={rc}:\n{out}")

    # 2. Broken fixtures are flagged, each shape at least once.
    rc, out = run(deeplint, fixtures)
    if rc != 1:
        failures.append(f"fixtures should fail deeplint with rc=1, got "
                        f"rc={rc}:\n{out}")
    for needle in (
            # lock-order: the fixture cycle, both edges named.
            "[lock-order]", "Account::mu_ -> Ledger::mu_",
            "Ledger::mu_ -> Account::mu_",
            # blocking-under-lock: syscall, Env I/O, foreign-mutex wait.
            "Flusher::HoldsAcrossFsync", "Flusher::HoldsAcrossEnvIo",
            "TwoLocks::WaitsHoldingForeign",
            # ... PageFile I/O and the WAL hook under the pool latch,
            # also inside a function whose REQUIRES is only on its
            # in-class declaration.
            "PageFile I/O file_->Read() while holding LatchedPool::mu_",
            "wal_flush_() while holding LatchedPool::mu_ (held since line "
            "15) in LatchedPool::FlushFrame",
            "PageFile I/O file_->Write() while holding LatchedPool::mu_",
            "PageFile I/O file_->Sync() while holding LatchedPool::mu_",
            # status-discipline: confinement, drop, blind retry.
            "Status::IOError constructed outside",
            "drops a call result with no reason comment",
            "never consults Status::IsRetryable",
            # direct-dispatch: a sibling's accessor called directly.
            "[direct-dispatch]",
            "direct dispatch HeapStorageMethodOps().count(...)",
            # mutex-discipline: raw std::mutex, a Mutex guarding nothing.
            "[mutex-discipline]", "std::mutex is invisible",
            "UnguardedMutexHolder::mu_ guards nothing",
            # ... matched by class: a neighbour's guarded `mu_` is not
            # this class's.
            "UnguardedSibling::mu_ guards nothing",
            # suppression hygiene: reasonless allow() is a finding.
            "[suppression]", "allow(blocking-under-lock) without a reason",
    ):
        if needle not in out:
            failures.append(f"expected fixture finding {needle!r}, "
                            f"output:\n{out}")

    # Shapes that must not be flagged: a guarded Mutex (alone, or beside
    # an unguarded namesake), an inheriting vector copy, a REQUIRES
    # function that releases its mutex around the I/O.
    for needle in ("GuardedMutexHolder", "GuardedSibling",
                   "InheritsFromHeap", "UnlatchedPool"):
        if needle in out:
            failures.append(f"unexpected fixture finding {needle!r}, "
                            f"output:\n{out}")

    # 3a. Reasoned waivers silence their findings.
    for needle in ("WaivedByDesign", "waived_mu_"):
        if needle in out:
            failures.append(f"reasoned allow() should silence {needle!r}, "
                            f"output:\n{out}")
    # 3b. The reasonless allow() suppresses nothing.
    if "Flusher::ReasonlessWaiver" not in out:
        failures.append(f"reasonless allow() must not suppress, "
                        f"output:\n{out}")
    # 3c. The nightly audit mode reports the waived finding again.
    rc, out = run(deeplint, "--no-suppressions", fixtures)
    for needle in ("WaivedByDesign", "waived_mu_"):
        if needle not in out:
            failures.append(f"--no-suppressions should report the waived "
                            f"{needle!r}, output:\n{out}")

    if failures:
        print("deeplint_test FAILED:", file=sys.stderr)
        for f in failures:
            print(" * " + f, file=sys.stderr)
        return 1
    print("deeplint_test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
