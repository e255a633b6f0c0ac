// Walkthrough of the paper's §2 motivation (Figure 1): why asynchronous
// circuits cannot be tested with arbitrary synchronous vectors.
//
// Circuit (a) shows non-confluence: applying AB=10 to the stable state with
// A=0,B=1 races a rising `a` against a falling `b`; depending on gate
// delays the pulse on c may or may not latch y.  Circuit (b) shows
// oscillation: raising A with B=0 makes the NAND/OR ring unstable forever.
#include <iostream>

#include "benchmarks/benchmarks.hpp"
#include "sim/explicit.hpp"
#include "sim/ternary.hpp"

namespace {

void show(const xatpg::Netlist& n, const std::vector<bool>& state) {
  for (xatpg::SignalId s = 0; s < n.num_signals(); ++s)
    std::cout << n.signal_name(s) << "=" << state[s] << " ";
  std::cout << "\n";
}

}  // namespace

int main() {
  using namespace xatpg;

  // --- Figure 1(a): non-confluence -----------------------------------------
  std::vector<bool> reset_a;
  const Netlist fig1a = fig1a_circuit(&reset_a);
  std::cout << "Figure 1(a) — non-confluence\ninitial stable state: ";
  show(fig1a, reset_a);

  std::cout << "\napplying AB = 10 (both inputs flip):\n";
  const auto race = explore_settling(fig1a, reset_a, {true, false}, 24);
  std::cout << "  exhaustive exploration finds " << race.stable_states.size()
            << " distinct settling states:\n";
  for (const auto& st : race.stable_states) {
    std::cout << "    ";
    show(fig1a, st);
  }
  const auto ternary = ternary_settle(fig1a, reset_a, {true, false});
  std::cout << "  ternary simulation marks the racing signals Φ: y="
            << (ternary.state[fig1a.signal("y")] == Ternary::X ? "Φ" : "01")
            << " — the vector is rejected for testing\n";

  std::cout << "\napplying AB = 11 (A rises, B held):\n";
  const auto safe = explore_settling(fig1a, reset_a, {true, true}, 24);
  std::cout << "  unique settling state — a valid synchronous test vector:\n    ";
  show(fig1a, *safe.stable_states.begin());

  // --- Figure 1(b): oscillation ---------------------------------------------
  std::vector<bool> reset_b;
  const Netlist fig1b = fig1b_circuit(&reset_b);
  std::cout << "\nFigure 1(b) — oscillation\ninitial stable state: ";
  show(fig1b, reset_b);
  std::cout << "\napplying AB = 10 (A rises, ring enabled):\n";
  const auto osc = explore_settling(fig1b, reset_b, {true, false}, 32);
  std::cout << "  exploration still has unstable states after 32 transitions"
            << (osc.exceeded_bound ? " — the circuit oscillates (c-,d-,c+,d+ "
                                     "repeats)\n"
                                   : "?\n");
  std::cout << "\napplying AB = 01 (B rises, ring broken by the OR):\n";
  const auto ok = explore_settling(fig1b, reset_b, {false, true}, 32);
  std::cout << "  unique settling state:\n    ";
  show(fig1b, *ok.stable_states.begin());
  return 0;
}
