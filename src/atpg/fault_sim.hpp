// Fault detection under non-deterministic faulty behaviour (§5.2–§5.3).
//
// A test sequence guarantees detection of a fault only if *every* possible
// execution of the faulty circuit mismatches the fault-free output response
// at some strobe — the paper's Figure 3/4 discussion: corruption that shows
// only on some delay assignments does not shorten or conclude the test.
//
// FaultSimulator tracks the set of faulty-circuit states that are still
// consistent with the fault-free responses observed so far:
//   * per test cycle, each candidate is settled exactly (all interleavings,
//     bounded by k) on the materialized faulty netlist, compiled once into
//     the packed-state kernel of sim/explicit;
//   * outcomes that differ from the good circuit at a primary output strobe
//     correspond to executions on which the tester already flagged the
//     fault — they leave the consistent set;
//   * outcomes matching the good response stay;
//   * a trajectory that fails to settle within k (faulty oscillation) can
//     never be *proven* to mismatch, so it poisons the sequence
//     conservatively.
// The fault is detected exactly when the consistent set becomes empty.
//
// This is the exact-race strengthening of the paper's ternary detector: the
// two agree when ternary resolves, and the exact detector additionally
// credits detections ternary reports as Φ.  ternary_screen below is the
// word-parallel ternary pass the paper uses for cheap screening; it is
// sound (definite mismatch => every execution mismatches) but incomplete.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "atpg/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/explicit.hpp"
#include "xatpg/options.hpp"  // FaultSimOptions (public API type)

namespace xatpg {

enum class DetectStatus : std::uint8_t {
  Undetermined,  ///< some faulty execution is still consistent
  Detected,      ///< every faulty execution has mismatched a strobe
  GaveUp,        ///< candidate explosion or unsettled faulty trajectory
};

// FaultSimOptions (the simulator caps) is a public API type — see
// xatpg/options.hpp.

/// Exact consistent-set simulator for one fault.  The faulty circuit is
/// compiled once, in the constructor, into a SettlingKernel the simulator
/// owns; the consistent set is a StateSet of packed faulty states.  Nothing
/// points back into the good netlist, so a simulator is freely copyable and
/// movable, and two simulators share no data.
class FaultSimulator {
 public:
  /// `reset_state` is the good circuit's (stable) reset state; the faulty
  /// circuit is reset to the same values and relaxed.
  FaultSimulator(const Netlist& good, const Fault& fault,
                 const std::vector<bool>& reset_state,
                 const FaultSimOptions& options = {});

  DetectStatus status() const { return status_; }
  const Fault& fault() const { return fault_; }

  /// Apply one test vector.  `good_state` is the good circuit's stable
  /// state after this cycle (its PO values are the expected responses).
  DetectStatus step(const std::vector<bool>& input_values,
                    const std::vector<bool>& good_state);

  /// Restart from reset (new test sequence); keeps Detected sticky.
  void restart();

  /// Cheap snapshot/rollback for the differentiation BFS.
  struct Snapshot {
    StateSet candidates;
    DetectStatus status;
  };
  Snapshot snapshot() const { return {candidates_, status_}; }
  void restore(const Snapshot& snap) {
    candidates_ = snap.candidates;
    status_ = snap.status;
  }

  /// Canonical serialization of the candidate set (BFS visited keys): the
  /// sorted rows' bytes, so equal sets give equal keys.
  std::string candidates_key() const { return candidates_.canonical_key(); }

 private:
  Fault fault_;
  FaultSimOptions options_;
  SettlingKernel faulty_;
  /// fault_initial_state of the good reset state, packed.
  std::vector<std::uint64_t> reset_row_;
  /// (index into the good input vector, faulty signal) for every primary
  /// input of the faulty circuit; a stuck input has no entry.
  std::vector<std::pair<std::size_t, SignalId>> input_map_;
  std::size_t num_good_inputs_;
  std::vector<SignalId> outputs_;  // same ids in the good and faulty circuit
  StateSet candidates_;
  DetectStatus status_ = DetectStatus::Undetermined;
  // Scratch, reused across steps.
  StateSet next_, settled_;
  std::vector<std::uint64_t> row_;
};

/// Word-parallel ternary screen: simulate up to 63 faults against the good
/// circuit (lane 0) along a vector sequence; returns the faults *provably*
/// detected by ternary analysis.  Sound but conservative (§5.4).
std::vector<std::size_t> ternary_screen(
    const Netlist& netlist, const std::vector<bool>& reset_state,
    const std::vector<Fault>& faults,
    const std::vector<std::vector<bool>>& vectors);

}  // namespace xatpg
