// Stuck-at fault universe (§1, §5): the paper's fault model is the *input*
// stuck-at model — every gate input pin stuck at 0/1 — which subsumes the
// output stuck-at model (every signal stuck at 0/1) because each signal
// drives some pin; the tables report both universes separately and so do we.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/ternary.hpp"
#include "xatpg/types.hpp"  // Fault (public API type)

namespace xatpg {

/// All input (gate-pin) stuck-at faults: 2 per pin.
std::vector<Fault> input_stuck_faults(const Netlist& netlist);

/// All output (signal) stuck-at faults: 2 per signal.
std::vector<Fault> output_stuck_faults(const Netlist& netlist);

/// Materialize the faulty circuit: output faults replace the gate with a
/// constant; pin faults redirect the pin to a fresh constant signal appended
/// at the end (original signal ids are preserved, so states of the good and
/// faulty circuit are comparable position-wise).
Netlist apply_fault(const Netlist& netlist, const Fault& fault);

/// Initial state of apply_fault(netlist, fault) corresponding to a state of
/// the good circuit (appends the constant's value if one was added).  The
/// returned state is NOT necessarily stable — the fault may excite gates.
std::vector<bool> fault_initial_state(const Netlist& netlist,
                                      const Fault& fault,
                                      const std::vector<bool>& good_state);

/// Translate an input vector indexed by `good`'s inputs into one indexed by
/// `faulty`'s inputs (a stuck primary input disappears from the faulty
/// circuit's input list; all surviving inputs are matched by name).
std::vector<bool> map_input_vector(const Netlist& good, const Netlist& faulty,
                                   const std::vector<bool>& good_vector);

}  // namespace xatpg
