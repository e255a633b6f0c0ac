// Ternary (0/1/Φ) simulation after Eichelberger, as used in §5.4 of the
// paper: Algorithm A propagates uncertainty (least-upper-bound in the
// information order), Algorithm B re-evaluates to resolve signals back to
// definite values.  If the B fixpoint contains a Φ, the applied input vector
// causes a critical race or an oscillation — a conservative but safe
// verdict.
//
// The simulator is word-parallel [Seshu]: 64 circuits settle per pass, one
// per bit lane.  Each signal carries two 64-bit rails (r1 = "can be 1",
// r0 = "can be 0"); (1,0)=1, (0,1)=0, (1,1)=Φ.  Two-rail gate evaluation
// *is* the ternary extension of the gate function, so Eichelberger's
// algorithms run unchanged across all lanes at once.  Fault screening
// injects one stuck-at fault per lane; a single-state settle is lane 0 of
// an uninjected run (ternary_settle).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace xatpg {

/// Ternary signal value.  X is Eichelberger's Φ: "neither 0 nor 1 for sure".
enum class Ternary : std::uint8_t { V0 = 0, V1 = 1, X = 2 };

inline Ternary to_ternary(bool b) { return b ? Ternary::V1 : Ternary::V0; }

/// Two-rail ternary word: one value per bit lane.
struct Rail {
  std::uint64_t r1 = 0;  ///< lane can be 1
  std::uint64_t r0 = 0;  ///< lane can be 0

  bool operator==(const Rail&) const = default;
};

inline Rail rail_all(Ternary t) {
  switch (t) {
    case Ternary::V0: return Rail{0, ~0ull};
    case Ternary::V1: return Rail{~0ull, 0};
    default: return Rail{~0ull, ~0ull};
  }
}

/// Ternary value of one lane.
Ternary rail_lane(const Rail& r, unsigned lane);
/// Set one lane to a ternary value.
void set_rail_lane(Rail& r, unsigned lane, Ternary t);

/// Algebra instance for eval_gate over Rail words: the lane-wise Kleene
/// operations, plus the least upper bound in the information order
/// (0,1 ⊑ Φ) that Algorithm A joins with.
struct RailOps {
  Rail zero() const { return Rail{0, ~0ull}; }
  Rail one() const { return Rail{~0ull, 0}; }
  Rail and_(const Rail& a, const Rail& b) const {
    return Rail{a.r1 & b.r1, a.r0 | b.r0};
  }
  Rail or_(const Rail& a, const Rail& b) const {
    return Rail{a.r1 | b.r1, a.r0 & b.r0};
  }
  Rail not_(const Rail& a) const { return Rail{a.r0, a.r1}; }
  Rail lub(const Rail& a, const Rail& b) const {
    return Rail{a.r1 | b.r1, a.r0 | b.r0};
  }
};

/// A stuck-at fault injected into one or more lanes.
struct LaneInjection {
  enum class Site : std::uint8_t {
    GatePin,       ///< the connection into fanin position `pin` of `gate`
    SignalOutput,  ///< the output of gate `gate`
  };
  Site site = Site::GatePin;
  SignalId gate = kNoSignal;
  std::size_t pin = 0;
  bool stuck_value = false;
  std::uint64_t lanes = 0;  ///< bit mask of affected lanes
};

/// 64-lane ternary simulator with optional per-lane fault injection.
///
/// Typical fault-screening use: lane 0 carries the fault-free circuit,
/// lanes 1..63 carry one faulty circuit each; after settle(), lanes whose
/// primary output is definite and differs from lane 0's definite value
/// have detected their fault.  Without injections every lane holds the same
/// value.
class ParallelTernarySim {
 public:
  explicit ParallelTernarySim(const Netlist& netlist,
                              std::vector<LaneInjection> injections = {});

  /// Load the same starting boolean state into every lane.
  void load_state(const std::vector<bool>& state);

  /// Apply an input vector (indexed like netlist.inputs()) to all lanes and
  /// run Algorithm A then Algorithm B to the fixpoint.
  void settle(const std::vector<bool>& input_values);

  Ternary value(SignalId s, unsigned lane) const {
    return rail_lane(state_[s], lane);
  }

  /// Lanes (mask) in which signal s currently has the definite value v.
  std::uint64_t lanes_definite(SignalId s, bool v) const;

  /// Lanes in which any signal is Φ (conservatively invalid lanes).
  std::uint64_t lanes_with_unknown() const;

 private:
  Rail eval_target(SignalId s) const;
  void inject_output_faults();

  const Netlist* netlist_;
  std::vector<LaneInjection> injections_;
  // Per-gate pin injections resolved for fast lookup: pin_faults_[g] lists
  // injections on gate g's pins.
  std::vector<std::vector<std::uint32_t>> pin_faults_;
  std::vector<std::vector<std::uint32_t>> output_faults_;
  std::vector<Rail> state_;
};

/// Outcome of applying one input vector to a stable state.
struct SettleResult {
  /// True iff every signal settled to a definite value: the circuit has a
  /// unique final stable state under the unbounded gate-delay model.
  bool confluent = false;
  /// Final ternary state (meaningful either way; Φ marks racing signals).
  std::vector<Ternary> state;

  /// Final state as booleans; precondition: confluent.
  std::vector<bool> final_state() const;
};

/// Apply `input_values` (indexed like netlist.inputs()) to the state `from`
/// and settle it: lane 0 of an uninjected ParallelTernarySim run.
SettleResult ternary_settle(const Netlist& netlist,
                            const std::vector<bool>& from,
                            const std::vector<bool>& input_values);

/// Find the unique stable state reached from `state` by plain re-evaluation
/// (used to compute reset states of synthesized circuits); returns false if
/// ternary analysis cannot prove a unique settlement.
bool settle_to_stable(const Netlist& netlist, std::vector<bool>& state);

}  // namespace xatpg
