// Reproduction of Figure 1: the two §2 motivation circuits.
//
// (a) non-confluence: applying AB=10 to stable state 01...0 settles to two
//     different states depending on gate delays (the paper's 10101101 vs
//     10100000 outcome pair — our reconstruction has the same structure:
//     the y latch either captures the pulse on c or misses it).
// (b) oscillation: raising A with B=0 puts the NAND/OR ring into the
//     repeating c-,d-,c+,d+ cycle.
//
// The harness prints, for every (reachable stable state, input pattern)
// pair of both circuits, the verdict of exhaustive race analysis and of
// conservative ternary simulation — the data behind the figure.
#include <cstdio>

#include "benchmarks/benchmarks.hpp"
#include "sim/explicit.hpp"
#include "sim/ternary.hpp"

namespace {

using namespace xatpg;

void analyze(const Netlist& netlist, const std::vector<bool>& reset) {
  std::printf("circuit '%s'\n", netlist.name().c_str());
  std::printf("%-14s | %-8s | %-20s | %s\n", "stable state", "pattern",
              "exact analysis", "ternary");
  const auto stables = explicit_stable_reachable(netlist, reset, 32);
  const std::size_t m = netlist.inputs().size();
  for (const auto& state : stables) {
    for (std::uint64_t bits = 0; bits < (1ull << m); ++bits) {
      std::vector<bool> vec(m);
      bool same = true;
      for (std::size_t i = 0; i < m; ++i) {
        vec[i] = (bits >> i) & 1;
        same = same && (vec[i] == state[netlist.inputs()[i]]);
      }
      if (same) continue;
      const auto exact = explore_settling(netlist, state, vec, 32);
      const auto ternary = ternary_settle(netlist, state, vec);
      std::string verdict;
      if (exact.confluent()) {
        verdict = "valid vector";
      } else if (exact.stable_states.size() > 1) {
        verdict = "NON-CONFLUENT (" +
                  std::to_string(exact.stable_states.size()) + " outcomes)";
      } else {
        verdict = "OSCILLATES/UNSETTLED";
      }
      std::string state_text, vec_text;
      for (const bool b : state) state_text += b ? '1' : '0';
      for (const bool b : vec) vec_text += b ? '1' : '0';
      std::printf("%-14s | %-8s | %-20s | %s\n", state_text.c_str(),
                  vec_text.c_str(), verdict.c_str(),
                  ternary.confluent ? "definite" : "has-X");
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::vector<bool> reset_a, reset_b;
  const Netlist fig1a = fig1a_circuit(&reset_a);
  const Netlist fig1b = fig1b_circuit(&reset_b);
  std::printf("Figure 1: circuits showing (a) non-confluence and (b) "
              "oscillation\n\n");
  analyze(fig1a, reset_a);
  analyze(fig1b, reset_b);
  return 0;
}
