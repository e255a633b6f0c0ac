// Brute-force oracles.  The settling oracle is the std::set explorer that
// the packed-state kernel of sim/explicit replaced, and the fault-sim
// oracle is the std::set consistent-set stepper built on it;
// tests/test_sim.cpp and the structural fuzzer check the production kernel
// and FaultSimulator against them.  The CSSG oracle is shared by the
// randomized differential suite (tests/test_differential.cpp) and the
// structural netlist fuzzer (tests/fuzz/fuzz_structural.cpp); the
// two-level minimization oracle backs tests/test_synth.cpp.
//
// The oracle re-derives the complete-state-signal graph by explicit search:
// BFS from reset over all input patterns, keeping only confluent settlings
// (exactly one stable outcome, every trajectory done within the bound) —
// the definition of a valid synchronous test vector.  The symbolic CSSG's
// state and edge sets must match it exactly; cssg_oracle_mismatch() reports
// the first divergence as text so non-gtest consumers (the fuzzer harness)
// can use the same check.
//
// The minimization oracle is pairwise Quine–McCluskey over on ∪ dc, the
// prime generator synthesis used before primes were built from the
// off-set, and the greedy cover that consumed its primes.  It enumerates every
// implicant of on ∪ dc (about 3^n when dc is most of the space), so
// callers keep nvars small.
//
// The random-phase oracle is the walk-major random TPG loop the engine ran
// before its random phase went fault-major (tests/test_parallel_atpg.cpp):
// one walk at a time, every live fault simulator stepped at every vector.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "atpg/engine.hpp"
#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "netlist/netlist.hpp"
#include "sgraph/cssg.hpp"
#include "sim/explicit.hpp"
#include "synth/cover.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace xatpg::testing {

// --- explicit settling oracle ----------------------------------------------

namespace oracle_detail {

/// All excited (unstable) gates in `state`.
inline std::vector<SignalId> excited_gates(const Netlist& netlist,
                                           const std::vector<bool>& state) {
  std::vector<SignalId> out;
  for (SignalId s = 0; s < netlist.num_signals(); ++s) {
    if (netlist.is_input(s)) continue;
    if (!netlist.is_gate_stable(s, state)) out.push_back(s);
  }
  return out;
}

}  // namespace oracle_detail

/// explore_settling as it was before the packed-state kernel: std::set
/// levels of std::vector<bool> states, gates evaluated through
/// Netlist::is_gate_stable, and a separate set of every state seen.
inline ExploreResult oracle_explore_settling(
    const Netlist& netlist, const std::vector<bool>& stable_from,
    const std::vector<bool>& input_values, std::size_t max_transitions) {
  XATPG_CHECK(stable_from.size() == netlist.num_signals());
  XATPG_CHECK(input_values.size() == netlist.inputs().size());

  ExploreResult result;
  std::vector<bool> start = stable_from;
  for (std::size_t i = 0; i < input_values.size(); ++i)
    start[netlist.inputs()[i]] = input_values[i];

  // Level-synchronous exploration: level d holds the set of *unstable*
  // states reachable in exactly d gate transitions after the input flip;
  // stable states are recorded and not expanded (they self-loop in R_delta).
  // This matches the TCR_k semantics exactly: the pattern is valid iff one
  // stable state is reachable and no trajectory is still unstable after
  // max_transitions steps.
  std::set<std::vector<bool>> seen_states;  // statistics only
  std::set<std::vector<bool>> level{start};
  std::size_t depth = 0;
  while (!level.empty()) {
    std::set<std::vector<bool>> next_level;
    for (const std::vector<bool>& state : level) {
      seen_states.insert(state);
      const auto excited = oracle_detail::excited_gates(netlist, state);
      if (excited.empty()) {
        result.stable_states.insert(state);
        continue;
      }
      if (depth == max_transitions) {
        // An unstable state survives at the transition bound: oscillation
        // or a settle time longer than the test cycle.
        result.exceeded_bound = true;
        continue;
      }
      for (const SignalId g : excited) {
        std::vector<bool> succ = state;
        succ[g] = !succ[g];
        next_level.insert(std::move(succ));
      }
    }
    if (depth == max_transitions) break;
    result.longest_path = depth;
    level = std::move(next_level);
    ++depth;
  }
  result.states_visited = seen_states.size();
  return result;
}

/// "" when the two exploration results agree on every field, else the
/// first field that differs.
inline std::string explore_mismatch(const ExploreResult& got,
                                    const ExploreResult& want) {
  if (got.stable_states != want.stable_states) return "stable_states";
  if (got.exceeded_bound != want.exceeded_bound) return "exceeded_bound";
  if (got.states_visited != want.states_visited) return "states_visited";
  if (got.longest_path != want.longest_path) return "longest_path";
  return {};
}

/// FaultSimulator as it was before the packed-state kernel: the consistent
/// set is a std::set of faulty states, each settled by
/// oracle_explore_settling on the materialized faulty netlist.  A plain
/// value, so a copy is a snapshot.
class OracleFaultSimulator {
 public:
  OracleFaultSimulator(const Netlist& good, const Fault& fault,
                       const std::vector<bool>& reset_state,
                       const FaultSimOptions& options)
      : good_(&good),
        fault_(fault),
        faulty_(apply_fault(good, fault)),
        reset_values_(reset_state),
        options_(options) {
    restart();
  }

  DetectStatus status() const { return status_; }
  const std::set<std::vector<bool>>& candidates() const { return candidates_; }

  void restart() {
    if (status_ == DetectStatus::Detected) return;  // sticky once proven
    status_ = DetectStatus::Undetermined;
    candidates_.clear();
    const std::vector<bool> start =
        fault_initial_state(*good_, fault_, reset_values_);
    std::vector<bool> inputs;
    for (const SignalId in : faulty_.inputs()) inputs.push_back(start[in]);
    const ExploreResult result =
        oracle_explore_settling(faulty_, start, inputs, options_.k);
    if (result.exceeded_bound) {
      status_ = DetectStatus::GaveUp;  // faulty circuit does not even reset
      return;
    }
    candidates_ = result.stable_states;
    if (candidates_.size() > options_.candidate_cap)
      status_ = DetectStatus::GaveUp;
  }

  DetectStatus step(const std::vector<bool>& input_values,
                    const std::vector<bool>& good_state) {
    if (status_ != DetectStatus::Undetermined) return status_;
    std::set<std::vector<bool>> next;
    for (const auto& candidate : candidates_) {
      const ExploreResult result = oracle_explore_settling(
          faulty_, candidate, map_input_vector(*good_, faulty_, input_values),
          options_.k);
      if (result.exceeded_bound) {
        status_ = DetectStatus::GaveUp;
        return status_;
      }
      for (const auto& settled : result.stable_states) {
        bool mismatch = false;
        for (const SignalId po : good_->outputs())
          if (settled[po] != good_state[po]) {
            mismatch = true;
            break;
          }
        if (!mismatch) next.insert(settled);
      }
      if (next.size() > options_.candidate_cap) {
        status_ = DetectStatus::GaveUp;
        return status_;
      }
    }
    candidates_ = std::move(next);
    if (candidates_.empty()) status_ = DetectStatus::Detected;
    return status_;
  }

 private:
  const Netlist* good_;
  Fault fault_;
  Netlist faulty_;
  std::vector<bool> reset_values_;
  FaultSimOptions options_;
  std::set<std::vector<bool>> candidates_;
  DetectStatus status_ = DetectStatus::Undetermined;
};

// --- CSSG oracle -------------------------------------------------------------

struct OracleCssg {
  std::set<std::vector<bool>> states;
  // (from state, input pattern, to state)
  std::set<std::tuple<std::vector<bool>, std::vector<bool>, std::vector<bool>>>
      edges;
};

/// Brute-force CSSG from `reset` with settlement bound `k`.  Cost is
/// O(states x 2^inputs x settlement interleavings) — callers keep circuits
/// small (<= ~4 inputs, ~12 signals).
inline OracleCssg oracle_cssg(const Netlist& netlist,
                              const std::vector<bool>& reset, std::size_t k) {
  OracleCssg oracle;
  const auto& inputs = netlist.inputs();
  oracle.states.insert(reset);
  std::vector<std::vector<bool>> worklist{reset};
  while (!worklist.empty()) {
    const std::vector<bool> state = worklist.back();
    worklist.pop_back();
    for (std::uint64_t bits = 0; bits < (1ull << inputs.size()); ++bits) {
      std::vector<bool> pattern(inputs.size());
      bool same = true;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        pattern[i] = (bits >> i) & 1;
        same = same && (pattern[i] == state[inputs[i]]);
      }
      if (same) continue;  // R_I: at least one input must flip
      const ExploreResult explored =
          oracle_explore_settling(netlist, state, pattern, k);
      if (!explored.confluent()) continue;
      const std::vector<bool>& succ = *explored.stable_states.begin();
      oracle.edges.insert({state, pattern, succ});
      if (oracle.states.insert(succ).second) worklist.push_back(succ);
    }
  }
  return oracle;
}

namespace oracle_detail {

inline std::string bits(const std::vector<bool>& v) {
  std::string s;
  for (const bool b : v) s += b ? '1' : '0';
  return s;
}

template <typename Set>
std::string first_difference(const Set& got, const Set& want,
                             std::string (*print)(
                                 const typename Set::value_type&)) {
  for (const auto& x : got)
    if (!want.count(x)) return "unexpected " + print(x);
  for (const auto& x : want)
    if (!got.count(x)) return "missing " + print(x);
  return {};
}

}  // namespace oracle_detail

/// Build the symbolic CSSG under `options` and diff it against the oracle;
/// the symbolic stable-reachable set is additionally checked against the
/// explicit enumerator (it must cover the oracle BFS and may contain stable
/// states only reachable through racing vectors).  Returns "" on a perfect
/// match, else a one-line description of the first divergence.
inline std::string cssg_oracle_mismatch(const Netlist& netlist,
                                        const std::vector<bool>& reset,
                                        const OracleCssg& oracle,
                                        const CssgOptions& options) {
  const Cssg cssg(netlist, {reset}, options);
  const ExplicitCssg graph = cssg.extract_explicit();

  std::set<std::vector<bool>> states(graph.states.begin(), graph.states.end());
  if (states.size() != graph.states.size())
    return "symbolic CSSG lists a state under two ids";
  if (states != oracle.states) {
    std::ostringstream os;
    os << "state sets differ (symbolic " << states.size() << ", oracle "
       << oracle.states.size() << "): "
       << oracle_detail::first_difference<std::set<std::vector<bool>>>(
              states, oracle.states,
              +[](const std::vector<bool>& s) { return oracle_detail::bits(s); });
    return os.str();
  }

  using Edge =
      std::tuple<std::vector<bool>, std::vector<bool>, std::vector<bool>>;
  std::set<Edge> edges;
  for (std::uint32_t id = 0; id < graph.states.size(); ++id)
    for (const auto& edge : graph.edges[id])
      edges.insert({graph.states[id], edge.pattern, graph.states[edge.to]});
  if (edges != oracle.edges) {
    std::ostringstream os;
    os << "edge sets differ (symbolic " << edges.size() << ", oracle "
       << oracle.edges.size() << "): "
       << oracle_detail::first_difference<std::set<Edge>>(
              edges, oracle.edges, +[](const Edge& e) {
                return oracle_detail::bits(std::get<0>(e)) + " --" +
                       oracle_detail::bits(std::get<1>(e)) + "--> " +
                       oracle_detail::bits(std::get<2>(e));
              });
    return os.str();
  }

  const std::set<std::vector<bool>> stable_explicit =
      explicit_stable_reachable(netlist, reset, options.k);
  const auto stable_symbolic_list =
      cssg.encoding().all_states_cur(cssg.stable_reachable());
  const std::set<std::vector<bool>> stable_symbolic(
      stable_symbolic_list.begin(), stable_symbolic_list.end());
  if (stable_symbolic != stable_explicit) {
    std::ostringstream os;
    os << "stable-reachable sets differ (symbolic " << stable_symbolic.size()
       << ", explicit " << stable_explicit.size() << "): "
       << oracle_detail::first_difference<std::set<std::vector<bool>>>(
              stable_symbolic, stable_explicit,
              +[](const std::vector<bool>& s) { return oracle_detail::bits(s); });
    return os.str();
  }
  return {};
}

// --- two-level minimization oracle ------------------------------------------

/// All prime implicants of on ∪ dc, sorted (classic QM combining pass).
inline std::vector<MinCube> oracle_prime_implicants(
    const std::vector<std::uint32_t>& on, const std::vector<std::uint32_t>& dc,
    unsigned nvars) {
  XATPG_CHECK(nvars <= 32);
  const std::uint32_t full_care =
      nvars == 32 ? ~0u : ((1u << nvars) - 1);

  std::set<MinCube> current;
  for (const std::uint32_t m : on) current.insert(MinCube{full_care, m});
  for (const std::uint32_t m : dc) current.insert(MinCube{full_care, m});

  std::vector<MinCube> primes;
  while (!current.empty()) {
    std::set<MinCube> combined;
    std::set<MinCube> used;
    // Two cubes combine when they have identical care sets and differ in
    // exactly one cared bit.
    std::vector<MinCube> cubes(current.begin(), current.end());
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      for (std::size_t j = i + 1; j < cubes.size(); ++j) {
        if (cubes[i].care != cubes[j].care) continue;
        const std::uint32_t diff = cubes[i].value ^ cubes[j].value;
        if (__builtin_popcount(diff) != 1) continue;
        combined.insert(MinCube{cubes[i].care & ~diff,
                                cubes[i].value & ~diff});
        used.insert(cubes[i]);
        used.insert(cubes[j]);
      }
    }
    for (const MinCube& c : cubes)
      if (!used.count(c)) primes.push_back(c);
    current = std::move(combined);
  }
  // Deduplicate and drop primes contained in other primes (can appear when
  // combining across different care patterns is impossible but containment
  // still holds through don't-cares).
  std::sort(primes.begin(), primes.end());
  primes.erase(std::unique(primes.begin(), primes.end()), primes.end());
  std::vector<MinCube> out;
  for (const MinCube& c : primes) {
    bool dominated = false;
    for (const MinCube& d : primes)
      if (!(d == c) && d.contains(c)) {
        dominated = true;
        break;
      }
    if (!dominated) out.push_back(c);
  }
  return out;
}

/// The greedy cover minimize_sop builds on `primes` (the oracle's primes of
/// on ∪ dc): essential primes, then largest gain, then an irredundancy pass.
inline std::vector<MinCube> oracle_greedy_cover(
    const std::vector<std::uint32_t>& on, const std::vector<MinCube>& primes) {
  if (on.empty()) return {};

  // Greedy set cover over the on-set.
  std::vector<std::uint32_t> uncovered = on;
  std::sort(uncovered.begin(), uncovered.end());
  uncovered.erase(std::unique(uncovered.begin(), uncovered.end()),
                  uncovered.end());
  std::vector<MinCube> cover;
  std::vector<bool> prime_used(primes.size(), false);

  // Essential primes first: an on-minterm covered by exactly one prime.
  for (const std::uint32_t m : uncovered) {
    int only = -1, count = 0;
    for (std::size_t p = 0; p < primes.size(); ++p)
      if (primes[p].covers_minterm(m)) {
        ++count;
        only = static_cast<int>(p);
      }
    XATPG_CHECK_MSG(count > 0, "on-minterm not covered by any prime");
    if (count == 1 && !prime_used[only]) {
      prime_used[only] = true;
      cover.push_back(primes[only]);
    }
  }
  const auto strip_covered = [&] {
    uncovered.erase(std::remove_if(uncovered.begin(), uncovered.end(),
                                   [&](std::uint32_t m) {
                                     return cover_eval(cover, m);
                                   }),
                    uncovered.end());
  };
  strip_covered();

  while (!uncovered.empty()) {
    std::size_t best = primes.size();
    long best_gain = -1;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      if (prime_used[p]) continue;
      long gain = 0;
      for (const std::uint32_t m : uncovered)
        if (primes[p].covers_minterm(m)) ++gain;
      // Prefer more coverage; tie-break on fewer literals (bigger cube).
      gain = gain * 64 - primes[p].num_literals();
      if (gain > best_gain) {
        best_gain = gain;
        best = p;
      }
    }
    XATPG_CHECK(best < primes.size());
    prime_used[best] = true;
    cover.push_back(primes[best]);
    strip_covered();
  }

  // Irredundancy pass: drop cubes whose on-minterms are covered elsewhere.
  for (std::size_t i = cover.size(); i-- > 0;) {
    std::vector<MinCube> without = cover;
    without.erase(without.begin() + static_cast<long>(i));
    bool redundant = true;
    for (const std::uint32_t m : on)
      if (!cover_eval(without, m)) {
        redundant = false;
        break;
      }
    if (redundant) cover = std::move(without);
  }
  return cover;
}

// --- random TPG oracle -------------------------------------------------------

/// What the random phase commits: every fault's outcome (Random or None),
/// the detecting walks in commit order, and the on_fault_resolved order.
struct OracleRandomPhase {
  std::vector<FaultOutcome> outcomes;
  std::vector<TestSequence> sequences;
  std::vector<std::size_t> resolved;
};

/// The random phase of `engine.run(faults)` (engine options, explicit CSSG,
/// reset id), computed by the walk-major loop: per walk, restart every
/// simulator, then step every still-live one at each vector.  The loop is
/// the engine's former one, minus its observer and cancel hooks.
inline OracleRandomPhase oracle_random_phase(const AtpgEngine& engine,
                                             const Netlist& netlist,
                                             const std::vector<bool>& reset,
                                             const std::vector<Fault>& faults) {
  const AtpgOptions& options = engine.options();
  const ExplicitCssg& graph = engine.graph();
  const std::uint32_t reset_id = engine.follow({})->front();
  AtpgResult result;
  for (const Fault& f : faults) result.outcomes.push_back(FaultOutcome{f});
  std::vector<std::size_t> resolved;
  const auto notify_resolved = [&](std::size_t i) { resolved.push_back(i); };
  std::vector<std::unique_ptr<FaultSimulator>> sims;
  for (const Fault& f : faults)
    sims.push_back(
        std::make_unique<FaultSimulator>(netlist, f, reset, options.sim));

  Rng rng(options.seed);
  std::size_t budget = options.random_budget;
  while (budget > 0) {
    // A fresh walk models a reset pulse followed by random valid vectors.
    // A circuit whose reset state has no valid vector at all (every pattern
    // races — it happens on heavily hazardous bounded-delay circuits)
    // cannot be random-tested.
    if (graph.edges[reset_id].empty()) break;
    for (auto& sim : sims) sim->restart();
    TestSequence walk;
    std::uint32_t good_id = reset_id;
    std::vector<std::size_t> walk_resolved;
    for (std::size_t step = 0; step < options.random_walk_len && budget > 0;
         ++step) {
      const auto& edges = graph.edges[good_id];
      if (edges.empty()) break;
      const auto& edge = edges[rng.below(edges.size())];
      --budget;
      walk.vectors.push_back(edge.pattern);
      const auto& good_state = graph.states[edge.to];
      for (std::size_t i = 0; i < sims.size(); ++i) {
        if (result.outcomes[i].covered_by != CoveredBy::None) continue;
        if (sims[i]->status() != DetectStatus::Undetermined) continue;
        if (sims[i]->step(edge.pattern, good_state) == DetectStatus::Detected) {
          result.outcomes[i].covered_by = CoveredBy::Random;
          result.outcomes[i].sequence_index =
              static_cast<int>(result.sequences.size());
          ++result.stats.by_random;
          walk_resolved.push_back(i);
        }
      }
      good_id = edge.to;
    }
    if (!walk_resolved.empty()) {
      result.sequences.push_back(walk);
      for (const std::size_t i : walk_resolved) notify_resolved(i);
    }
    // Stop early once everything is covered.
    if (result.stats.by_random == faults.size()) break;
  }
  return {std::move(result.outcomes), std::move(result.sequences),
          std::move(resolved)};
}

}  // namespace xatpg::testing
