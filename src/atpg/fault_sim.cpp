#include "atpg/fault_sim.hpp"

#include "sim/explicit.hpp"
#include "util/check.hpp"

namespace xatpg {

FaultSimulator::FaultSimulator(const Netlist& good, const Fault& fault,
                               const std::vector<bool>& reset_state,
                               const FaultSimOptions& options)
    : good_(&good),
      fault_(fault),
      faulty_(apply_fault(good, fault)),
      reset_values_(reset_state),
      options_(options) {
  restart();
}

void FaultSimulator::restart() {
  if (status_ == DetectStatus::Detected) return;  // sticky once proven
  status_ = DetectStatus::Undetermined;
  candidates_.clear();
  // Reset drives every (shared) signal to the good reset value; the faulty
  // circuit then relaxes freely.  No strobe is compared at reset time.
  const std::vector<bool> start =
      fault_initial_state(*good_, fault_, reset_values_);
  std::vector<bool> inputs;
  for (const SignalId in : faulty_.inputs()) inputs.push_back(start[in]);
  const ExploreResult result =
      explore_settling(faulty_, start, inputs, options_.k);
  if (result.exceeded_bound) {
    status_ = DetectStatus::GaveUp;  // faulty circuit does not even reset
    return;
  }
  candidates_ = result.stable_states;
  if (candidates_.size() > options_.candidate_cap)
    status_ = DetectStatus::GaveUp;
}

void FaultSimulator::settle_into(const std::vector<bool>& start,
                                 const std::vector<bool>& input_values,
                                 const std::vector<bool>* good_state,
                                 std::set<std::vector<bool>>& out) {
  const ExploreResult result = explore_settling(
      faulty_, start, map_input_vector(*good_, faulty_, input_values),
      options_.k);
  if (result.exceeded_bound) {
    status_ = DetectStatus::GaveUp;
    return;
  }
  for (const auto& candidate : result.stable_states) {
    if (good_state) {
      // Strobe: executions whose primary outputs differ from the expected
      // response have been flagged by the tester — drop them.
      bool mismatch = false;
      for (const SignalId po : good_->outputs())
        if (candidate[po] != (*good_state)[po]) {
          mismatch = true;
          break;
        }
      if (mismatch) continue;
    }
    out.insert(candidate);
  }
}

DetectStatus FaultSimulator::step(const std::vector<bool>& input_values,
                                  const std::vector<bool>& good_state) {
  if (status_ != DetectStatus::Undetermined) return status_;
  std::set<std::vector<bool>> next;
  for (const auto& candidate : candidates_) {
    settle_into(candidate, input_values, &good_state, next);
    if (status_ == DetectStatus::GaveUp) return status_;
    if (next.size() > options_.candidate_cap) {
      status_ = DetectStatus::GaveUp;
      return status_;
    }
  }
  candidates_ = std::move(next);
  if (candidates_.empty()) status_ = DetectStatus::Detected;
  return status_;
}

std::string FaultSimulator::candidates_key() const {
  std::string key;
  for (const auto& candidate : candidates_) {
    for (const bool b : candidate) key += b ? '1' : '0';
    key += '|';
  }
  return key;
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
