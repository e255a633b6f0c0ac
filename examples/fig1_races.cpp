// Walkthrough of the paper's §2 motivation (Figure 1): why asynchronous
// circuits cannot be tested with arbitrary synchronous vectors.
//
// Circuit (a) shows non-confluence: applying AB=10 to the stable state with
// A=0,B=1 races a rising `a` against a falling `b`; depending on gate
// delays the pulse on c may or may not latch y.  Circuit (b) shows
// oscillation: raising A with B=0 makes the NAND/OR ring unstable forever.
//
// After the walkthrough it prints the data behind the figure: for every
// (reachable stable state, input pattern) pair of both circuits, the
// verdict of exhaustive race analysis and of conservative ternary
// simulation.
#include <iomanip>
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

std::string bits(const std::vector<bool>& values) {
  std::string text;
  for (const bool b : values) text += b ? '1' : '0';
  return text;
}

/// One verdict row per (reachable stable state, changed input pattern).
void verdict_table(const xatpg::Netlist& netlist,
                   const std::vector<bool>& reset) {
  using namespace xatpg;
  const auto row = [](const std::string& state, const std::string& pattern,
                      const std::string& exact, const std::string& ternary) {
    std::cout << std::left << std::setw(14) << state << " | " << std::setw(8)
              << pattern << " | " << std::setw(20) << exact << " | "
              << ternary << "\n";
  };
  std::cout << "circuit '" << netlist.name() << "'\n";
  row("stable state", "pattern", "exact analysis", "ternary");
  const std::size_t m = netlist.inputs().size();
  for (const auto& state : explicit_stable_reachable(netlist, reset, 32)) {
    for (std::uint64_t pattern = 0; pattern < (1ull << m); ++pattern) {
      std::vector<bool> vec(m);
      bool same = true;
      for (std::size_t i = 0; i < m; ++i) {
        vec[i] = (pattern >> i) & 1;
        same = same && (vec[i] == state[netlist.inputs()[i]]);
      }
      if (same) continue;
      const auto exact = explore_settling(netlist, state, vec, 32);
      std::string verdict = "valid vector";
      if (exact.stable_states.size() > 1) {
        verdict = "NON-CONFLUENT (" +
                  std::to_string(exact.stable_states.size()) + " outcomes)";
      } else if (!exact.confluent()) {
        verdict = "OSCILLATES/UNSETTLED";
      }
      row(bits(state), bits(vec), verdict,
          ternary_settle(netlist, state, vec).confluent ? "definite" : "has-X");
    }
  }
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

  std::cout << "\nFigure 1: circuits showing (a) non-confluence and (b) "
               "oscillation\n\n";
  verdict_table(fig1a, reset_a);
  verdict_table(fig1b, reset_b);
  return 0;
}
