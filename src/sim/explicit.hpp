// Explicit-state race exploration under the unbounded gate-delay model.
//
// Enumerates *all* interleavings of excited-gate firings after an input
// pattern is applied to a stable state (the "competition between sensitized
// paths" of §2).  Exact but exponential, with the bound k of TCR_k on
// every trajectory.  It is the production kernel of FaultSimulator, which
// settles every consistent faulty state with it during exact fault-sim
// confirmation (most of the time of a pre-built netlist run goes here).  It
// is also the test oracle for the conservative ternary simulator and for the
// symbolic TCR_k/CSSG computation, and bench_fig1 uses it to demonstrate
// non-confluence and oscillation on the paper's Figure 1 circuits.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "netlist/netlist.hpp"

namespace xatpg {

/// Outcome of exhaustive exploration of one (stable state, input pattern).
struct ExploreResult {
  /// All stable states reachable within the transition bound.
  std::set<std::vector<bool>> stable_states;
  /// True if some trajectory of length `max_transitions` ends unstable
  /// (oscillation, or a settle time exceeding the test cycle).
  bool exceeded_bound = false;
  /// Number of distinct states visited.
  std::size_t states_visited = 0;
  /// Length of the longest transition sequence explored (capped).
  std::size_t longest_path = 0;

  /// The pattern is a valid synchronous test vector (§4): exactly one
  /// stable settling state, and every trajectory settles within the bound.
  bool confluent() const {
    return stable_states.size() == 1 && !exceeded_bound;
  }
};

/// Exhaustively explore the settling behavior after flipping the primary
/// inputs of `stable_from` to `input_values`, with at most `max_transitions`
/// gate transitions per trajectory (the k of TCR_k).
ExploreResult explore_settling(const Netlist& netlist,
                               const std::vector<bool>& stable_from,
                               const std::vector<bool>& input_values,
                               std::size_t max_transitions);

/// All excited (unstable) gates in `state`.
std::vector<SignalId> excited_gates(const Netlist& netlist,
                                    const std::vector<bool>& state);

/// Enumerate every stable state of the netlist reachable in test mode from
/// `reset_state` using arbitrary input patterns (explicit TCSG stable-state
/// reachability; oracle for the symbolic traversal).  `max_transitions`
/// bounds each settling; states whose settling exceeds the bound or races
/// still contribute all their reachable stable states, mirroring the TCSG
/// definition.
std::set<std::vector<bool>> explicit_stable_reachable(
    const Netlist& netlist, const std::vector<bool>& reset_state,
    std::size_t max_transitions);

}  // namespace xatpg
