// deeplint fixture: a two-lock acquisition cycle. Never compiled —
// deeplint_test.py asserts the lock-order pass reports the deadlock.

#include "src/util/thread_annotations.h"

namespace dmx {

class Account;

class Ledger {
 public:
  Ledger& operator=(const Ledger& o);
  void Post();
  void Reconcile();
  Mutex mu_;
  Account* account_;
};

class Account {
 public:
  void Debit();
  void Audit();
  Mutex mu_;
  Ledger* ledger_;
};

// An out-of-line operator= ahead of the cycle: its `=` is part of the
// name, and reading it as an initializer would hide every definition
// below from the pass.
Ledger& Ledger::operator=(const Ledger& o) {
  account_ = o.account_;
  return *this;
}

// Ledger::mu_ -> Account::mu_ ...
void Ledger::Post() {
  MutexLock lock(&mu_);
  account_->Debit();
}

void Account::Debit() {
  MutexLock lock(&mu_);
}

void Ledger::Reconcile() {
  MutexLock lock(&mu_);
}

// ... and Account::mu_ -> Ledger::mu_: opposite order, deadlock.
void Account::Audit() {
  MutexLock lock(&mu_);
  ledger_->Reconcile();
}

}  // namespace dmx
