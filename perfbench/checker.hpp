// Independent output checker for the benchmark.
//
// It re-reads a circuit from its netlist text with its own parser and
// simulates it with its own explicit interleaving simulator (every order of
// excited-gate firings, bounded by k transitions per test cycle), so it
// shares no code with src/sim or src/atpg.  Given a job's exported results
// it checks that:
//   * every vector changes at least one primary input and settles the good
//     circuit to exactly one stable state within k transitions;
//   * the exported test program's expected responses are that settlement;
//   * every fault reported covered is detected by its sequence on every
//     execution of the faulty circuit;
//   * each fault universe has 2 x pins or 2 x signals faults, counted from
//     the netlist text.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Pins and signals counted directly from .xnl or .bench text.
struct TextCounts {
  std::size_t signals = 0;
  std::size_t pins = 0;
};
TextCounts count_netlist_text(const std::string& text, bool bench_format);

/// One fault as the checker sees it: a gate pin or a signal, by name.
struct NamedFault {
  bool pin_fault = true;
  std::string gate;  ///< gate (pin fault) or signal (output fault) name
  std::size_t pin = 0;
  bool stuck = false;
  int sequence = -1;  ///< covering sequence index, -1 = not covered
};

/// Everything a job exported, in names (not library ids).
struct JobOutput {
  std::string xnl;                       ///< canonical circuit text
  std::vector<std::string> reset_high;   ///< signals that are 1 at reset
  /// Per universe, per sequence, the input vectors.
  std::vector<std::vector<std::vector<std::vector<bool>>>> sequences;
  std::vector<std::vector<NamedFault>> universes;  ///< [0]=output, [1]=input
  std::vector<std::string> programs;     ///< exported test program per universe
  TextCounts counts;                     ///< counted from the submitted text
  std::size_t k = 24;
};

/// Empty on success, otherwise the first violation found.
std::string check_job(const JobOutput& job);

/// Self-test: the checker must reject a copy of `job` with one vector
/// flipped back to the previous input values, and a copy with an uncovered
/// (or, failing that, any) fault claimed covered by an empty sequence.
/// Empty on success.
std::string self_test(const JobOutput& job);

}  // namespace perfbench
