#include "atpg/fault_sim.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace xatpg {

FaultSimulator::FaultSimulator(const Netlist& good, const Fault& fault,
                               const std::vector<bool>& reset_state,
                               const FaultSimOptions& options)
    : fault_(fault),
      options_(options),
      faulty_(apply_fault(good, fault)),
      reset_row_(faulty_.words()),
      num_good_inputs_(good.inputs().size()),
      outputs_(good.outputs()),
      candidates_(faulty_.words()),
      next_(faulty_.words()),
      settled_(faulty_.words()),
      row_(faulty_.words()) {
  // Reset drives every (shared) signal to the good reset value; the faulty
  // circuit then relaxes freely.
  faulty_.pack(fault_initial_state(good, fault, reset_state),
               reset_row_.data());
  // Signal ids are shared, so a primary input keeps its id unless the
  // fault removed it (a stuck pad is a constant gate in the faulty circuit).
  for (std::size_t i = 0; i < good.inputs().size(); ++i) {
    const SignalId in = good.inputs()[i];
    if (!(fault.site == Fault::Site::SignalOutput && fault.gate == in))
      input_map_.emplace_back(i, in);
  }
  restart();
}

void FaultSimulator::restart() {
  if (status_ == DetectStatus::Detected) return;  // sticky once proven
  status_ = DetectStatus::Undetermined;
  candidates_.clear();
  // No strobe is compared at reset time.
  if (faulty_.settle(reset_row_.data(), options_.k, candidates_)
          .exceeded_bound) {
    candidates_.clear();
    status_ = DetectStatus::GaveUp;  // faulty circuit does not even reset
    return;
  }
  if (candidates_.size() > options_.candidate_cap)
    status_ = DetectStatus::GaveUp;
}

DetectStatus FaultSimulator::step(const std::vector<bool>& input_values,
                                  const std::vector<bool>& good_state) {
  if (status_ != DetectStatus::Undetermined) return status_;
  XATPG_CHECK(input_values.size() == num_good_inputs_);
  next_.clear();
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    std::copy_n(candidates_.row(c), row_.size(), row_.begin());
    for (const auto& [index, signal] : input_map_)
      set_row_bit(row_.data(), signal, input_values[index]);
    settled_.clear();
    if (faulty_.settle(row_.data(), options_.k, settled_).exceeded_bound) {
      status_ = DetectStatus::GaveUp;
      return status_;
    }
    for (std::size_t s = 0; s < settled_.size(); ++s) {
      // Strobe: executions whose primary outputs differ from the expected
      // response have been flagged by the tester — drop them.
      const std::uint64_t* settled = settled_.row(s);
      bool mismatch = false;
      for (const SignalId po : outputs_)
        if (row_bit(settled, po) != good_state[po]) {
          mismatch = true;
          break;
        }
      if (!mismatch) next_.insert(settled);
    }
    if (next_.size() > options_.candidate_cap) {
      status_ = DetectStatus::GaveUp;
      return status_;
    }
  }
  std::swap(candidates_, next_);
  if (candidates_.empty()) status_ = DetectStatus::Detected;
  return status_;
}

std::vector<std::size_t> ternary_screen(
    const Netlist& netlist, const std::vector<bool>& reset_state,
    const std::vector<Fault>& faults,
    const std::vector<std::vector<bool>>& vectors) {
  XATPG_CHECK_MSG(faults.size() <= 63, "ternary screen handles <= 63 faults");
  std::vector<LaneInjection> injections;
  injections.reserve(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i)
    injections.push_back(faults[i].to_injection(1ull << (i + 1)));

  ParallelTernarySim sim(netlist, injections);
  sim.load_state(reset_state);

  std::uint64_t detected = 0;
  for (const auto& vec : vectors) {
    sim.settle(vec);
    for (const SignalId po : netlist.outputs()) {
      // Lane 0 is the fault-free circuit; a faulty lane is caught when both
      // values are definite and differ.
      const std::uint64_t good1 = sim.lanes_definite(po, true);
      const std::uint64_t good0 = sim.lanes_definite(po, false);
      if (good1 & 1ull) detected |= good0;
      if (good0 & 1ull) detected |= good1;
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (detected & (1ull << (i + 1))) out.push_back(i);
  return out;
}

}  // namespace xatpg
