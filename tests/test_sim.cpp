#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "benchmarks/benchmarks.hpp"
#include "fixtures.hpp"
#include "netlist/netlist.hpp"
#include "netlist/random_netlist.hpp"
#include "oracle.hpp"
#include "sgraph/cssg.hpp"
#include "sim/explicit.hpp"
#include "sim/ternary.hpp"
#include "util/random.hpp"

namespace xatpg {
namespace {

using fixtures::Circuit;

TEST(TernaryAlgebra, TruthTables) {
  using T = Ternary;
  const RailOps ops;
  const auto lane = [](const Rail& r) { return rail_lane(r, 0); };
  const auto all = [](T t) { return rail_all(t); };
  EXPECT_EQ(lane(ops.and_(all(T::V1), all(T::V1))), T::V1);
  EXPECT_EQ(lane(ops.and_(all(T::V0), all(T::X))), T::V0);  // 0 dominates
  EXPECT_EQ(lane(ops.and_(all(T::X), all(T::V1))), T::X);
  EXPECT_EQ(lane(ops.or_(all(T::V1), all(T::X))), T::V1);  // 1 dominates
  EXPECT_EQ(lane(ops.or_(all(T::V0), all(T::X))), T::X);
  EXPECT_EQ(lane(ops.not_(all(T::X))), T::X);
  EXPECT_EQ(lane(ops.not_(all(T::V0))), T::V1);
  EXPECT_EQ(lane(ops.lub(all(T::V0), all(T::V0))), T::V0);
  EXPECT_EQ(lane(ops.lub(all(T::V0), all(T::V1))), T::X);
  EXPECT_EQ(lane(ops.lub(all(T::X), all(T::V1))), T::X);
}

TEST(TernarySettle, StableInputNoChangeStaysStable) {
  const Circuit fix = fixtures::chain();
  const Netlist& n = fix.netlist;
  const std::vector<bool>& st = fix.reset;  // A=0, n=1, y=0
  ASSERT_TRUE(n.is_stable_state(st));
  const auto result = ternary_settle(n, st, {false});
  EXPECT_TRUE(result.confluent);
  EXPECT_EQ(result.final_state(), st);
}

TEST(TernarySettle, CombinationalChainSettles) {
  const Circuit fix = fixtures::chain();
  const Netlist& n = fix.netlist;
  const auto result = ternary_settle(n, fix.reset, {true});
  ASSERT_TRUE(result.confluent);
  const auto fin = result.final_state();
  EXPECT_TRUE(fin[n.signal("A")]);
  EXPECT_FALSE(fin[n.signal("n")]);
  EXPECT_TRUE(fin[n.signal("y")]);
}

TEST(TernarySettle, DetectsNonConfluenceInFig1a) {
  const Circuit fix = fixtures::fig1a();
  const Netlist& n = fix.netlist;
  // Apply AB = 10: a rising races b falling; y may or may not latch.
  const auto result = ternary_settle(n, fix.reset, {true, false});
  EXPECT_FALSE(result.confluent);
  // The racing signal y must be marked unknown.
  EXPECT_EQ(result.state[n.signal("y")], Ternary::X);
}

TEST(TernarySettle, Fig1aSafeVectorIsConfluent) {
  const Circuit fix = fixtures::fig1a();
  const Netlist& n = fix.netlist;
  // Raising only A (B stays 1) makes c rise and latch y deterministically.
  const auto result = ternary_settle(n, fix.reset, {true, true});
  ASSERT_TRUE(result.confluent);
  const auto fin = result.final_state();
  EXPECT_TRUE(fin[n.signal("c")]);
  EXPECT_TRUE(fin[n.signal("y")]);
}

TEST(TernarySettle, DetectsOscillationInFig1b) {
  const Circuit fix = fixtures::fig1b();
  const Netlist& n = fix.netlist;
  // Raising A with B=0 starts the c/d oscillation.
  const auto result = ternary_settle(n, fix.reset, {true, false});
  EXPECT_FALSE(result.confluent);
  EXPECT_EQ(result.state[n.signal("c")], Ternary::X);
  EXPECT_EQ(result.state[n.signal("d")], Ternary::X);
}

TEST(TernarySettle, Fig1bBreakingTheRingIsConfluent) {
  const Circuit fix = fixtures::fig1b();
  const Netlist& n = fix.netlist;
  // Raising A and B together: d is held at 1 by b, c falls to !a = 0.
  const auto result = ternary_settle(n, fix.reset, {true, true});
  ASSERT_TRUE(result.confluent);
  const auto fin = result.final_state();
  EXPECT_FALSE(fin[n.signal("c")]);
  EXPECT_TRUE(fin[n.signal("d")]);
}

TEST(TernarySettle, SettleToStableHelper) {
  const Netlist n = parse_xnl_string(fixtures::kChainXnl);
  std::vector<bool> st(n.num_signals(), false);  // A=0,n=0,y=0: n excited
  EXPECT_TRUE(settle_to_stable(n, st));
  EXPECT_TRUE(st[n.signal("n")]);
  EXPECT_FALSE(st[n.signal("y")]);
  EXPECT_TRUE(n.is_stable_state(st));
}

// --- explicit exploration (the exact oracle) --------------------------------

TEST(ExplicitExplore, ConfluentVectorHasUniqueOutcome) {
  const Circuit fix = fixtures::fig1a();
  const auto result =
      explore_settling(fix.netlist, fix.reset, {true, true}, 20);
  EXPECT_TRUE(result.confluent());
  EXPECT_EQ(result.stable_states.size(), 1u);
  EXPECT_FALSE(result.exceeded_bound);
}

TEST(ExplicitExplore, RaceYieldsTwoStableStates) {
  const Circuit fix = fixtures::fig1a();
  const Netlist& n = fix.netlist;
  const auto result = explore_settling(n, fix.reset, {true, false}, 20);
  EXPECT_FALSE(result.confluent());
  // Exactly the two settlements the paper describes: y latched or not.
  EXPECT_EQ(result.stable_states.size(), 2u);
  bool saw_latched = false, saw_unlatched = false;
  for (const auto& st : result.stable_states) {
    if (st[n.signal("y")]) saw_latched = true;
    if (!st[n.signal("y")]) saw_unlatched = true;
  }
  EXPECT_TRUE(saw_latched);
  EXPECT_TRUE(saw_unlatched);
}

TEST(ExplicitExplore, OscillationExceedsBound) {
  const Circuit fix = fixtures::fig1b();
  const auto result =
      explore_settling(fix.netlist, fix.reset, {true, false}, 30);
  EXPECT_TRUE(result.exceeded_bound);
  EXPECT_FALSE(result.confluent());
}

TEST(ExplicitExplore, TernaryVsExplicitRelationship) {
  // Properties relating the conservative ternary analysis to the exact
  // bounded-interleaving explorer:
  //  (1) a genuine race (>= 2 distinct stable outcomes among interleavings)
  //      must be flagged by ternary simulation;
  //  (2) when ternary simulation resolves to a definite state, that state is
  //      the unique stable outcome of the exact explorer.
  // Note the explorer may additionally report exceeded_bound on *transient*
  // oscillations (unfair interleavings postponing an excited gate forever);
  // ternary simulation, which models finite gate delays, legitimately
  // resolves those — this is exactly the §2 "transient oscillation"
  // distinction, and why the CSSG (not ternary sim) is the vector-validity
  // arbiter in the ATPG flow.
  for (const Circuit& fix :
       {fixtures::fig1a(), fixtures::fig1b(), fixtures::chain()}) {
    const Netlist& n = fix.netlist;
    const std::size_t m = n.inputs().size();
    const auto stables = explicit_stable_reachable(n, fix.reset, 30);
    for (const auto& st : stables) {
      for (std::uint64_t bits = 0; bits < (1u << m); ++bits) {
        std::vector<bool> vec(m);
        bool same = true;
        for (std::size_t i = 0; i < m; ++i) {
          vec[i] = (bits >> i) & 1;
          same = same && (vec[i] == st[n.inputs()[i]]);
        }
        if (same) continue;
        const auto ternary = ternary_settle(n, st, vec);
        const auto exact = explore_settling(n, st, vec, 50);
        if (exact.stable_states.size() >= 2) {
          EXPECT_FALSE(ternary.confluent)
              << n.name() << ": ternary missed a real race";
        }
        if (ternary.confluent) {
          ASSERT_EQ(exact.stable_states.size(), 1u)
              << n.name() << ": ternary definite but outcomes not unique";
          EXPECT_EQ(*exact.stable_states.begin(), ternary.final_state());
        }
      }
    }
  }
}

TEST(ExplicitExplore, StableReachableContainsReset) {
  const Circuit fix = fixtures::chain();
  const auto states = explicit_stable_reachable(fix.netlist, fix.reset, 20);
  EXPECT_TRUE(states.count(fix.reset));
  EXPECT_EQ(states.size(), 2u);  // A=0 and A=1 settlements
}

// --- the packed-state kernel against the std::set oracle ------------------
// explore_settling runs on SettlingKernel; testing::oracle_explore_settling
// is the std::set explorer it replaced.  Every field must agree, including
// the statistics (states_visited counts distinct states over all levels).

std::vector<bool> pattern_of(std::uint64_t bits, std::size_t width) {
  std::vector<bool> pattern(width);
  for (std::size_t i = 0; i < width; ++i) pattern[i] = (bits >> i) & 1;
  return pattern;
}

void expect_kernel_matches_oracle(const Netlist& n,
                                  const std::vector<bool>& from,
                                  const std::vector<bool>& pattern,
                                  std::size_t k, const std::string& what) {
  const ExploreResult got = explore_settling(n, from, pattern, k);
  const ExploreResult want =
      testing::oracle_explore_settling(n, from, pattern, k);
  EXPECT_EQ(testing::explore_mismatch(got, want), "")
      << what << " k=" << k << " pattern "
      << testing::oracle_detail::bits(pattern) << " from "
      << testing::oracle_detail::bits(from);
}

/// Every input pattern from every stable state explicit_stable_reachable
/// finds, at several bounds (the low ones end trajectories unstable).
void expect_kernel_matches_oracle_everywhere(const Netlist& n,
                                             const std::vector<bool>& reset,
                                             const std::string& what) {
  const std::size_t m = n.inputs().size();
  for (const auto& st : explicit_stable_reachable(n, reset, 20))
    for (std::uint64_t bits = 0; bits < (1ull << m); ++bits)
      for (const std::size_t k : {0, 3, 20})
        expect_kernel_matches_oracle(n, st, pattern_of(bits, m), k, what);
}

TEST(ExplicitKernel, StateSetKeepsInsertionOrderAndRejectsDuplicates) {
  for (const std::size_t words : {1, 2, 3}) {
    StateSet set(words);
    std::vector<std::uint64_t> row(words);
    // Enough rows to force several rehashes; each row is nonzero in one
    // word only, so duplicates are found only if every word is compared.
    for (std::uint64_t i = 0; i < 1000; ++i) {
      std::fill(row.begin(), row.end(), 0);
      row[i % words] = i;
      EXPECT_TRUE(set.insert(row.data())) << i;
      EXPECT_FALSE(set.insert(row.data())) << i;
    }
    ASSERT_EQ(set.size(), 1000u);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      EXPECT_EQ(set.row(i)[i % words], i);
      for (std::size_t w = 0; w < words; ++w)
        if (w != i % words) {
          EXPECT_EQ(set.row(i)[w], 0u);
        }
    }
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(set.insert(row.data()));
  }
}

TEST(ExplicitKernel, CanonicalKeyIgnoresInsertionOrder) {
  const std::vector<std::vector<std::uint64_t>> rows = {
      {5, 1}, {0, 2}, {5, 0}, {~0ull, 7}, {1, 1}};
  StateSet forward(2), backward(2), fewer(2);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    forward.insert(rows[i].data());
    backward.insert(rows[rows.size() - 1 - i].data());
    if (i != 2) fewer.insert(rows[i].data());
  }
  EXPECT_EQ(forward.canonical_key(), backward.canonical_key());
  EXPECT_EQ(forward.canonical_key().size(), 5 * 2 * sizeof(std::uint64_t));
  EXPECT_NE(forward.canonical_key(), fewer.canonical_key());
  EXPECT_EQ(StateSet(2).canonical_key(), "");
}

TEST(ExplicitKernel, MatchesOracleOnFigureCircuits) {
  for (const Circuit& fix :
       {fixtures::fig1a(), fixtures::fig1b(), fixtures::chain(),
        fixtures::celem(), fixtures::async_latch(), fixtures::pipeline2()})
    expect_kernel_matches_oracle_everywhere(fix.netlist, fix.reset,
                                            fix.netlist.name());
  // Fig. 1b oscillates: every bound up to the one used elsewhere.
  const Circuit fix = fixtures::fig1b();
  for (std::size_t k = 0; k <= 32; ++k)
    expect_kernel_matches_oracle(fix.netlist, fix.reset, {true, false}, k,
                                 "fig1b oscillation");
}

TEST(ExplicitKernel, MatchesOracleOnCorpusCssgStates) {
  // Every CSSG state of every si/ and bd/ corpus circuit under every input
  // pattern: the CSSG edges (confluent settlings) and the racing or
  // oscillating patterns the CSSG leaves out.
  std::size_t edges = 0;
  for (const SynthStyle style :
       {SynthStyle::SpeedIndependent, SynthStyle::BoundedDelay}) {
    const bool si = style == SynthStyle::SpeedIndependent;
    for (const std::string& name :
         si ? si_benchmark_names() : bd_benchmark_names()) {
      const SynthResult synth = benchmark_circuit(name, style);
      const Netlist& n = synth.netlist;
      const Cssg cssg(n, {synth.reset_state});
      const ExplicitCssg graph = cssg.extract_explicit();
      const std::size_t m = n.inputs().size();
      ASSERT_LE(m, 8u) << name;
      for (std::uint32_t id = 0; id < graph.states.size(); ++id) {
        edges += graph.edges[id].size();
        for (std::uint64_t bits = 0; bits < (1ull << m); ++bits)
          expect_kernel_matches_oracle(n, graph.states[id], pattern_of(bits, m),
                                       cssg.options().k,
                                       (si ? "si/" : "bd/") + name);
      }
    }
  }
  EXPECT_GT(edges, 0u);
}

TEST(ExplicitKernel, MatchesOracleOnRandomNetlistsAndMutants) {
  // Random netlists are feed-forward; their mutants may close loops, which
  // brings oscillation (exceeded_bound) into the comparison.
  std::size_t circuits = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RandomNetlistOptions shape;
    shape.num_inputs = 2 + seed % 3;
    shape.num_gates = 5 + seed % 6;
    fixtures::Circuit c;
    try {
      c = fixtures::random_netlist(seed, shape);
    } catch (const CheckError&) {
      continue;  // the generator refused this seed
    }
    expect_kernel_matches_oracle_everywhere(
        c.netlist, c.reset, "random seed " + std::to_string(seed));
    ++circuits;
    Rng rng(seed);
    for (int round = 0; round < 3; ++round) {
      std::optional<MutatedNetlist> mutant = mutate_netlist(c.netlist, rng);
      if (!mutant) break;
      c.netlist = std::move(mutant->netlist);
      c.reset = std::move(mutant->reset);
      expect_kernel_matches_oracle_everywhere(
          c.netlist, c.reset,
          "mutant " + std::to_string(round) + " of seed " +
              std::to_string(seed));
    }
  }
  EXPECT_GE(circuits, 20u);
}

TEST(ExplicitKernel, MatchesOracleAcrossWordBoundary) {
  // 83 signals, two words per state: two 40-BUF chains race from A into an
  // AND and an XOR of their ends.  The chains advance independently, so a
  // level holds states that differ in both words.
  Netlist n("two_chains");
  const SignalId a = n.add_input("A");
  SignalId ends[2];
  for (int c = 0; c < 2; ++c) {
    SignalId prev = a;
    for (int i = 0; i < 40; ++i)
      prev = n.add_gate(GateType::Buf,
                        "c" + std::to_string(c) + "_" + std::to_string(i),
                        {prev});
    ends[c] = prev;
  }
  n.add_gate(GateType::And, "both", {ends[0], ends[1]});
  n.set_output(n.add_gate(GateType::Xor, "diff", {ends[0], ends[1]}));
  ASSERT_GT(n.num_signals(), 64u);
  const std::vector<bool> reset(n.num_signals(), false);
  ASSERT_TRUE(n.is_stable_state(reset));
  for (const std::size_t k : {0, 39, 40, 41, 79, 80, 81, 82, 100})
    expect_kernel_matches_oracle(n, reset, {true}, k, "two 40-BUF chains");
  const ExploreResult settled = explore_settling(n, reset, {true}, 100);
  ASSERT_TRUE(settled.confluent());
  EXPECT_TRUE((*settled.stable_states.begin())[n.signal("both")]);
}

TEST(ExplicitKernel, MatchesOracleOnGatesWiderThanTheTable) {
  // A 14-input AND (above kMaxTableFanins: evaluated through eval_gate), an
  // 11-input XOR (the widest tabled gate) and a 12-input C-element (wide and
  // state-holding: the fallback must read the gate's own value).
  static_assert(SettlingKernel::kMaxTableFanins == 11);
  std::string text;
  for (int i = 0; i < 14; ++i) text += "INPUT(i" + std::to_string(i) + ")\n";
  text += "OUTPUT(wide)\nOUTPUT(par)\nwide = AND(";
  for (int i = 0; i < 14; ++i) text += (i ? ", i" : "i") + std::to_string(i);
  text += ")\npar = XOR(";
  for (int i = 0; i < 11; ++i) text += (i ? ", i" : "i") + std::to_string(i);
  text += ")\n";
  Netlist n = parse_bench_string(text);
  std::vector<SignalId> fanins;
  for (int i = 2; i < 14; ++i)
    fanins.push_back(n.signal("i" + std::to_string(i)));
  n.set_output(n.add_gate(GateType::Celem, "hold", fanins));
  std::vector<bool> reset(n.num_signals(), false);
  ASSERT_TRUE(settle_to_stable(n, reset));
  Rng rng(14);
  std::vector<bool> from = reset;
  for (int trial = 0; trial < 60; ++trial) {
    // Mostly-ones patterns, so the AND and the C-element actually switch.
    std::vector<bool> pattern(14);
    for (std::size_t i = 0; i < 14; ++i) pattern[i] = trial % 2 || rng.below(8);
    expect_kernel_matches_oracle(n, from, pattern, 24, "wide gates");
    const ExploreResult step = explore_settling(n, from, pattern, 24);
    ASSERT_TRUE(step.confluent());
    from = *step.stable_states.begin();
  }
}

// --- FaultSimulator against the std::set consistent-set stepper -------------

/// Seeded walks over the good circuit's CSSG, stepping FaultSimulator and
/// testing::OracleFaultSimulator side by side for every fault: statuses
/// must agree at every step, through restart() and snapshot()/restore(), and
/// candidates_key() must be canonical (equal keys exactly when the oracle's
/// candidate sets are equal).  Returns how often each status was seen.
std::map<DetectStatus, std::size_t> expect_fault_sim_matches_oracle(
    const Netlist& n,
    const std::vector<bool>& reset, const std::vector<Fault>& faults,
    const FaultSimOptions& options, const std::string& what) {
  std::map<DetectStatus, std::size_t> seen;
  const Cssg cssg(n, {reset});
  const ExplicitCssg graph = cssg.extract_explicit();
  const std::uint32_t reset_id = *graph.find(reset);
  EXPECT_FALSE(graph.edges[reset_id].empty()) << what;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    SCOPED_TRACE(what + " fault " + std::to_string(f));
    FaultSimulator sim(n, faults[f], reset, options);
    testing::OracleFaultSimulator oracle(n, faults[f], reset, options);
    EXPECT_EQ(sim.status(), oracle.status());
    std::map<std::string, std::set<std::vector<bool>>> key_to_set;
    std::map<std::set<std::vector<bool>>, std::string> set_to_key;
    const auto check_key = [&] {
      ++seen[sim.status()];
      if (sim.status() != DetectStatus::Undetermined) return;
      const std::string key = sim.candidates_key();
      const auto [k, new_key] = key_to_set.emplace(key, oracle.candidates());
      EXPECT_EQ(k->second, oracle.candidates()) << "one key, two sets";
      const auto [s, new_set] = set_to_key.emplace(oracle.candidates(), key);
      EXPECT_EQ(s->second, key) << "one set, two keys";
    };
    check_key();
    Rng rng(1000 + f);
    for (int walk = 0; walk < 6; ++walk) {
      sim.restart();
      oracle.restart();
      EXPECT_EQ(sim.status(), oracle.status()) << "restart, walk " << walk;
      check_key();
      std::optional<std::pair<FaultSimulator::Snapshot,
                              testing::OracleFaultSimulator>>
          saved;
      std::uint32_t saved_id = reset_id;
      std::uint32_t good_id = reset_id;
      for (int step = 0; step < 8; ++step) {
        const auto& edges = graph.edges[good_id];
        if (edges.empty()) break;
        if (step == 2) {
          saved.emplace(sim.snapshot(), oracle);
          saved_id = good_id;
        }
        const auto& edge = edges[rng.below(edges.size())];
        const DetectStatus status =
            sim.step(edge.pattern, graph.states[edge.to]);
        EXPECT_EQ(status, oracle.step(edge.pattern, graph.states[edge.to]))
            << "walk " << walk << " step " << step;
        check_key();
        good_id = edge.to;
      }
      if (!saved) continue;
      // Roll back to step 2 and branch along another random edge.
      sim.restore(saved->first);
      oracle = saved->second;
      EXPECT_EQ(sim.status(), oracle.status());
      check_key();
      const auto& edges = graph.edges[saved_id];
      const auto& edge = edges[rng.below(edges.size())];
      EXPECT_EQ(sim.step(edge.pattern, graph.states[edge.to]),
                oracle.step(edge.pattern, graph.states[edge.to]))
          << "after restore, walk " << walk;
      check_key();
    }
  }
  return seen;
}

TEST(FaultSimOracle, MatchesOnRandS11) {
  RandomNetlistOptions shape;  // the perf corpus's rand/s11 shape
  shape.num_inputs = 3;
  shape.num_gates = 8;
  const Circuit c = fixtures::random_netlist(11, shape);
  auto seen = expect_fault_sim_matches_oracle(
      c.netlist, c.reset, input_stuck_faults(c.netlist), {}, "rand/s11");
  EXPECT_GT(seen[DetectStatus::Detected], 0u);
  EXPECT_GT(seen[DetectStatus::Undetermined], 0u);
  // A tiny candidate cap drives the GaveUp path too.
  FaultSimOptions capped;
  capped.candidate_cap = 1;
  seen = expect_fault_sim_matches_oracle(c.netlist, c.reset,
                                         input_stuck_faults(c.netlist), capped,
                                         "rand/s11 cap 1");
  EXPECT_GT(seen[DetectStatus::GaveUp], 0u);
}

TEST(FaultSimOracle, MatchesOnBdHazard) {
  const SynthResult synth =
      benchmark_circuit("hazard", SynthStyle::BoundedDelay);
  auto seen = expect_fault_sim_matches_oracle(
      synth.netlist, synth.reset_state, input_stuck_faults(synth.netlist), {},
      "bd/hazard");
  EXPECT_GT(seen[DetectStatus::Detected], 0u);
  EXPECT_GT(seen[DetectStatus::Undetermined], 0u);
}

TEST(FaultSimOracle, SimulatorIsCopyable) {
  // The compiled faulty circuit is owned, not borrowed: a copy steps on its
  // own after the original (and its netlist) are gone.
  const Circuit fix = fixtures::fig1a();
  const Fault fault = input_stuck_faults(fix.netlist).front();
  std::optional<FaultSimulator> copy;
  {
    const Netlist good = fix.netlist;
    const FaultSimulator original(good, fault, fix.reset);
    copy.emplace(original);
  }
  testing::OracleFaultSimulator oracle(fix.netlist, fault, fix.reset, {});
  const auto state = explore_settling(fix.netlist, fix.reset, {true, true}, 24);
  ASSERT_TRUE(state.confluent());
  EXPECT_EQ(copy->step({true, true}, *state.stable_states.begin()),
            oracle.step({true, true}, *state.stable_states.begin()));
}

// --- two-rail lanes and fault injection ------------------------------------

TEST(RailAlgebra, LaneRoundTrip) {
  Rail r = rail_all(Ternary::V0);
  set_rail_lane(r, 7, Ternary::V1);
  set_rail_lane(r, 9, Ternary::X);
  EXPECT_EQ(rail_lane(r, 0), Ternary::V0);
  EXPECT_EQ(rail_lane(r, 7), Ternary::V1);
  EXPECT_EQ(rail_lane(r, 9), Ternary::X);
}

TEST(RailAlgebra, PointwiseKleeneTables) {
  // The lane-wise lift of Kleene's strong three-valued logic, checked
  // against literal tables.  Lane 3*i+j carries the pair (vals[i], vals[j]),
  // so one word evaluates all nine pairs at once and a lane that leaked
  // into its neighbour would show.
  using T = Ternary;
  const T vals[] = {T::V0, T::V1, T::X};
  const T and_table[3][3] = {
      {T::V0, T::V0, T::V0}, {T::V0, T::V1, T::X}, {T::V0, T::X, T::X}};
  const T or_table[3][3] = {
      {T::V0, T::V1, T::X}, {T::V1, T::V1, T::V1}, {T::X, T::V1, T::X}};
  const T lub_table[3][3] = {
      {T::V0, T::X, T::X}, {T::X, T::V1, T::X}, {T::X, T::X, T::X}};
  const T not_table[3] = {T::V1, T::V0, T::X};
  Rail ra = rail_all(T::V0), rb = rail_all(T::V0);
  for (unsigned i = 0; i < 3; ++i)
    for (unsigned j = 0; j < 3; ++j) {
      set_rail_lane(ra, 3 * i + j, vals[i]);
      set_rail_lane(rb, 3 * i + j, vals[j]);
    }
  const RailOps ops;
  const Rail r_and = ops.and_(ra, rb), r_or = ops.or_(ra, rb);
  const Rail r_lub = ops.lub(ra, rb), r_not = ops.not_(ra);
  for (unsigned i = 0; i < 3; ++i)
    for (unsigned j = 0; j < 3; ++j) {
      const unsigned lane = 3 * i + j;
      EXPECT_EQ(rail_lane(r_and, lane), and_table[i][j]) << i << "," << j;
      EXPECT_EQ(rail_lane(r_or, lane), or_table[i][j]) << i << "," << j;
      EXPECT_EQ(rail_lane(r_lub, lane), lub_table[i][j]) << i << "," << j;
      EXPECT_EQ(rail_lane(r_not, lane), not_table[i]) << i;
    }
}

TEST(ParallelSim, UninjectedLanesAgree) {
  // Without injections every lane holds the same value, which is what lets
  // ternary_settle read a single-state settle off lane 0.  Covers a
  // confluent vector, a race and an oscillation.
  for (const Circuit& fix : {fixtures::fig1a(), fixtures::fig1b()}) {
    for (const std::vector<bool>& vec :
         {std::vector<bool>{true, true}, std::vector<bool>{true, false}}) {
      ParallelTernarySim par(fix.netlist);
      par.load_state(fix.reset);
      par.settle(vec);
      for (SignalId s = 0; s < fix.netlist.num_signals(); ++s) {
        for (unsigned lane = 1; lane < 64; ++lane)
          ASSERT_EQ(par.value(s, lane), par.value(s, 0))
              << fix.netlist.name() << " signal " << s << " lane " << lane;
      }
      const std::uint64_t unknown = par.lanes_with_unknown();
      EXPECT_TRUE(unknown == 0 || unknown == ~0ull);
    }
  }
}

TEST(ParallelSim, OutputStuckAtDetected) {
  const Circuit fix = fixtures::chain();
  const Netlist& n = fix.netlist;
  // Lane 1: y stuck-at-0.
  LaneInjection inj{LaneInjection::Site::SignalOutput, n.signal("y"), 0, false,
                    1ull << 1};
  ParallelTernarySim par(n, {inj});
  par.load_state(fix.reset);
  par.settle({true});  // good: y -> 1; faulty: y stuck 0
  EXPECT_EQ(par.value(n.signal("y"), 0), Ternary::V1);
  EXPECT_EQ(par.value(n.signal("y"), 1), Ternary::V0);
  EXPECT_EQ(par.lanes_definite(n.signal("y"), true) & 1ull, 1ull);
  EXPECT_EQ(par.lanes_definite(n.signal("y"), false) & 2ull, 2ull);
}

TEST(ParallelSim, InputPinStuckAt) {
  const Circuit fix = fixtures::chain();
  const Netlist& n = fix.netlist;
  // Lane 3: the pin n->y (pin 0 of gate y) stuck-at-1, so y = NOT(1) = 0.
  LaneInjection inj{LaneInjection::Site::GatePin, n.signal("y"), 0, true,
                    1ull << 3};
  ParallelTernarySim par(n, {inj});
  par.load_state(fix.reset);
  par.settle({true});  // good circuit: n=0, y=1; faulty: y=0
  EXPECT_EQ(par.value(n.signal("y"), 0), Ternary::V1);
  EXPECT_EQ(par.value(n.signal("y"), 3), Ternary::V0);
}

TEST(ParallelSim, RaceMarksLaneUnknown) {
  const Circuit fix = fixtures::fig1a();
  ParallelTernarySim par(fix.netlist);
  par.load_state(fix.reset);
  par.settle({true, false});  // the racing vector
  EXPECT_NE(par.lanes_with_unknown() & 1ull, 0ull);
}

TEST(ParallelSim, SixtyFourLanesIndependent) {
  const Circuit fix = fixtures::chain();
  const Netlist& n = fix.netlist;
  // Odd lanes: y output stuck at 0.
  std::uint64_t odd = 0;
  for (int lane = 1; lane < 64; lane += 2) odd |= 1ull << lane;
  LaneInjection inj{LaneInjection::Site::SignalOutput, n.signal("y"), 0, false,
                    odd};
  ParallelTernarySim par(n, {inj});
  par.load_state(fix.reset);
  par.settle({true});
  for (unsigned lane = 0; lane < 64; ++lane) {
    const Ternary expected = (lane % 2) ? Ternary::V0 : Ternary::V1;
    ASSERT_EQ(par.value(n.signal("y"), lane), expected) << "lane " << lane;
  }
}

TEST(ParallelSim, InjectionValidation) {
  const Netlist n = parse_xnl_string(fixtures::kChainXnl);
  LaneInjection bad{LaneInjection::Site::GatePin, n.signal("y"), 5, true, 1};
  EXPECT_THROW(ParallelTernarySim(n, {bad}), CheckError);
}

}  // namespace
}  // namespace xatpg
