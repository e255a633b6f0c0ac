// Positive fixtures for xatpg-same-manager: every line below that mixes
// operands from two BddManagers must be flagged.  Run via
// `ctest -R lint_same_manager` (the xatpg_lint checker).
#include "xatpg_stub.hpp"

using xatpg::Bdd;
using xatpg::BddManager;

void cross_manager_binary_ops() {
  BddManager m1;
  BddManager m2;
  Bdd a = m1.var(0);
  Bdd b = m2.var(1);

  Bdd bad_and = a & b;
  // CHECK-MESSAGES: :[[@LINE-1]]:3: warning: different BddManagers [xatpg-same-manager]

  Bdd bad_or = a | b;
  // CHECK-MESSAGES: :[[@LINE-1]]:3: warning: different BddManagers [xatpg-same-manager]

  Bdd bad_xor = a ^ b;
  // CHECK-MESSAGES: :[[@LINE-1]]:3: warning: different BddManagers [xatpg-same-manager]

  (void)bad_and;
  (void)bad_or;
  (void)bad_xor;
}

void cross_manager_through_copies() {
  BddManager m1;
  BddManager m2;
  Bdd a = m1.var(0);
  Bdd b = m2.var(0);
  Bdd a2 = a;
  Bdd mixed = a2 & b;
  // CHECK-MESSAGES: :[[@LINE-1]]:3: warning: different BddManagers [xatpg-same-manager]
  (void)mixed;
}

void cross_manager_method_call() {
  BddManager m1;
  BddManager m2;
  Bdd f = m1.var(0);
  Bdd g = m2.var(1);
  Bdd h = m1.var(2);

  Bdd bad_ite = m1.ite(f, g, h);
  // CHECK-MESSAGES: :[[@LINE-1]]:3: warning: runs on 'm1' [xatpg-same-manager]

  Bdd bad_apply = m2.apply_and(f, f);
  // CHECK-MESSAGES: :[[@LINE-1]]:3: warning: runs on 'm2' [xatpg-same-manager]

  (void)bad_ite;
  (void)bad_apply;
}
