// Quickstart for the public API: open an xatpg::Session on an asynchronous
// circuit, run the full ATPG flow with streaming progress, and print the
// generated synchronous test program.
//
//   $ ./examples/quickstart
//
// The circuit is a Muller C-element with a completion detector (the
// "chu150" benchmark reconstruction), synthesized speed-independently.
// Everything below uses only the installed headers (include/xatpg) — this
// is exactly what an out-of-tree consumer of find_package(xatpg) writes.
#include <iostream>

#include "xatpg/xatpg.hpp"

namespace {

/// Minimal observer: one line per phase transition (see xatpg/progress.hpp
/// for the full streaming contract — per-fault events, periodic snapshots
/// with per-shard BDD statistics, cooperative cancellation).
class PhasePrinter : public xatpg::RunObserver {
 public:
  void on_phase(xatpg::RunPhase phase) override {
    std::cout << "  [phase] " << xatpg::run_phase_name(phase) << "\n";
  }
};

}  // namespace

int main() {
  using namespace xatpg;

  // 1. Open a session.  Any failure — malformed .xnl text, unknown
  //    benchmark, degenerate options — comes back as a typed xatpg::Error
  //    instead of an abort.
  AtpgOptions options;
  options.k = 24;            // max gate transitions per test cycle
  options.random_budget = 32;
  options.threads = 2;       // fault-parallel 3-phase search (0 = all cores);
                             // outcomes are identical for any thread count
  options.reorder.enabled = true;  // dynamic BDD reordering (Rudell sifting)
                                   // on every symbolic shard; like threads,
                                   // it never changes outcomes — only node
                                   // counts and timing
  Expected<Session> session =
      Session::from_benchmark("chu150", SynthStyle::SpeedIndependent, options);
  if (!session) {
    std::cerr << "session failed: " << session.error().to_string() << "\n";
    return 1;
  }
  std::cout << "Circuit '" << session->circuit_name() << "': "
            << session->num_inputs() << " inputs, " << session->num_outputs()
            << " outputs, " << session->num_signals() << " signals, "
            << session->num_pins() << " gate input pins\n\n";

  const CssgStats& cssg = session->cssg_stats();
  std::cout << "CSSG: " << cssg.stable_states << " stable states, "
            << cssg.cssg_edges << " valid test vectors (pruned "
            << cssg.nonconfluent_pairs << " non-confluent and "
            << cssg.unstable_pairs << " oscillating pairs)\n\n";

  // 2. Run ATPG for the input stuck-at model, streaming phase transitions.
  //    A CancelToken could be passed alongside the observer to stop the run
  //    between faults; add_faults() would later grow the universe, reusing
  //    every memoized search and searching only the new faults.
  PhasePrinter progress;
  const Expected<AtpgResult> result =
      session->run(session->input_stuck_faults(), &progress);
  if (!result) {
    std::cerr << "run failed: " << result.error().to_string() << "\n";
    return 1;
  }
  std::cout << "\nInput stuck-at coverage: " << result->stats.covered << "/"
            << result->stats.total_faults << " ("
            << 100.0 * result->stats.coverage() << "%)\n"
            << "  by random TPG:       " << result->stats.by_random << "\n"
            << "  by 3-phase ATPG:     " << result->stats.by_three_phase << "\n"
            << "  by fault simulation: " << result->stats.by_fault_sim << "\n\n";

  // 3. Export the test program a synchronous tester would replay.
  const Expected<std::string> program = session->test_program(*result);
  if (!program) {
    std::cerr << "export failed: " << program.error().to_string() << "\n";
    return 1;
  }
  std::cout << "Test program:\n" << *program;
  return 0;
}
