#include "benchmarks/benchmarks.hpp"

#include <gtest/gtest.h>

#include <set>

#include "fixtures.hpp"
#include "sim/explicit.hpp"
#include "sim/ternary.hpp"

namespace xatpg {
namespace {

TEST(BenchmarkRegistry, SuiteSizes) {
  EXPECT_EQ(si_benchmark_names().size(), 24u);
  EXPECT_EQ(bd_benchmark_names().size(), 9u);
  // Every BD benchmark is also in the SI suite (same specifications).
  for (const auto& name : bd_benchmark_names())
    EXPECT_NE(std::find(si_benchmark_names().begin(),
                        si_benchmark_names().end(), name),
              si_benchmark_names().end())
        << name;
}

TEST(BenchmarkRegistry, RedundantFlags) {
  EXPECT_TRUE(benchmark_is_redundant("trimos-send"));
  EXPECT_TRUE(benchmark_is_redundant("vbe10b"));
  EXPECT_TRUE(benchmark_is_redundant("vbe6a"));
  EXPECT_FALSE(benchmark_is_redundant("chu150"));
}

TEST(BenchmarkRegistry, UnknownNameThrows) {
  EXPECT_THROW(benchmark_stg("nonesuch"), CheckError);
}

TEST(FixtureCircuits, Fig1SourcesDoNotDrift) {
  // The Figure 1 netlists exist twice: as xnl text in tests/fixtures.hpp
  // (for parser tests) and embedded in fig1a_circuit()/fig1b_circuit()
  // (which also supply the paper's initial states).  Lock the two copies
  // together so an edit to either shows up as a failure here.
  EXPECT_EQ(write_xnl_string(fixtures::fig1a().netlist),
            write_xnl_string(parse_xnl_string(fixtures::kFig1aXnl)));
  EXPECT_EQ(write_xnl_string(fixtures::fig1b().netlist),
            write_xnl_string(parse_xnl_string(fixtures::kFig1bXnl)));
}

TEST(FixtureCircuits, ValidateAndRoundTrip) {
  // The shared test-rig circuits must satisfy the same contract as the
  // registry benchmarks: structurally valid, stable at reset, and
  // serializable through the native format without loss.
  for (const fixtures::Circuit& fix :
       {fixtures::fig1a(), fixtures::fig1b(), fixtures::chain(),
        fixtures::celem(), fixtures::async_latch(), fixtures::pipeline2(),
        fixtures::random_netlist(3)}) {
    fix.netlist.check_invariants();
    EXPECT_TRUE(fix.netlist.is_stable_state(fix.reset)) << fix.netlist.name();
    const Netlist reparsed = parse_xnl_string(write_xnl_string(fix.netlist));
    EXPECT_EQ(reparsed.num_signals(), fix.netlist.num_signals())
        << fix.netlist.name();
    EXPECT_EQ(reparsed.inputs().size(), fix.netlist.inputs().size())
        << fix.netlist.name();
  }
}

// Parameterized validation of every named benchmark specification.
class BenchmarkSpecTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkSpecTest, ExpandsConsistently) {
  const Stg stg = benchmark_stg(GetParam());
  const StateGraph sg = expand_stg(stg);
  EXPECT_GE(sg.num_states(), 4u);
  EXPECT_LE(sg.num_states(), 4096u);
}

TEST_P(BenchmarkSpecTest, HasCompleteStateCoding) {
  const StateGraph sg = expand_stg(benchmark_stg(GetParam()));
  const auto violations = csc_violations(sg);
  EXPECT_TRUE(violations.empty())
      << GetParam() << ": " << (violations.empty() ? "" : violations.front());
}

TEST_P(BenchmarkSpecTest, HasQuiescentResetState) {
  const StateGraph sg = expand_stg(benchmark_stg(GetParam()));
  EXPECT_FALSE(sg.quiescent_states().empty());
}

TEST_P(BenchmarkSpecTest, SynthesizesSpeedIndependent) {
  const SynthResult r = benchmark_circuit(GetParam(), SynthStyle::SpeedIndependent);
  r.netlist.check_invariants();
  EXPECT_TRUE(r.netlist.is_stable_state(r.reset_state));
  EXPECT_FALSE(r.netlist.inputs().empty());
  EXPECT_FALSE(r.netlist.outputs().empty());
}

TEST_P(BenchmarkSpecTest, SynthesizesBoundedDelay) {
  const SynthResult r = benchmark_circuit(GetParam(), SynthStyle::BoundedDelay);
  r.netlist.check_invariants();
  EXPECT_TRUE(r.netlist.is_stable_state(r.reset_state));
}

TEST_P(BenchmarkSpecTest, SiImplementationFollowsSgBehaviour) {
  // Walking the SG's own event order as synchronous vectors must settle the
  // SI netlist deterministically through the matching codes.
  const Stg stg = benchmark_stg(GetParam());
  const StateGraph sg = expand_stg(stg);
  const SynthResult r = benchmark_circuit(GetParam(), SynthStyle::SpeedIndependent);
  const Netlist& n = r.netlist;

  // Locate the SG state matching the reset state's signal values.
  std::uint32_t current = 0;
  bool found = false;
  for (std::uint32_t st = 0; st < sg.num_states() && !found; ++st) {
    bool match = true;
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
      match = match &&
              (sg.codes[st][sig] == r.reset_state[n.signal(stg.signal(sig).name)]);
    // Reset states are quiescent; insist on a quiescent match.
    if (match) {
      bool quiet = true;
      for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
        if (stg.signal(sig).kind != SignalKind::Input && sg.excited[st][sig])
          quiet = false;
      if (quiet) {
        current = st;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << GetParam();

  // Follow up to 40 SG input events; after each, outputs must settle to the
  // SG's stable successor codes.
  std::vector<bool> state = r.reset_state;
  for (int step = 0; step < 40; ++step) {
    // Find an enabled *input* transition from `current`.
    const StateGraph::Edge* chosen = nullptr;
    for (const auto& e : sg.edges[current]) {
      if (stg.signal(stg.transition(e.transition).signal).kind ==
          SignalKind::Input) {
        chosen = &e;
        break;
      }
    }
    if (!chosen) break;  // outputs pending — SG quiescence handled below
    // Apply the input event as a synchronous vector.
    std::vector<bool> vec;
    for (const SignalId in : n.inputs()) vec.push_back(state[in]);
    const std::uint32_t tsig = stg.transition(chosen->transition).signal;
    for (std::size_t i = 0; i < n.inputs().size(); ++i)
      if (n.signal_name(n.inputs()[i]) == stg.signal(tsig).name)
        vec[i] = stg.transition(chosen->transition).rising;
    // Exact bounded exploration (ternary simulation is conservative and can
    // report Φ through gC feedback even when the settlement is unique).
    const auto settled = explore_settling(n, state, vec, 40);
    ASSERT_TRUE(settled.confluent()) << GetParam() << " step " << step;
    state = *settled.stable_states.begin();
    // Advance the SG to the quiescent state reached by firing the input
    // event and then all excited outputs.
    std::uint32_t sg_state = chosen->to;
    for (int fire = 0; fire < 100; ++fire) {
      const StateGraph::Edge* out_edge = nullptr;
      for (const auto& e : sg.edges[sg_state])
        if (stg.signal(stg.transition(e.transition).signal).kind !=
            SignalKind::Input) {
          out_edge = &e;
          break;
        }
      if (!out_edge) break;
      sg_state = out_edge->to;
    }
    current = sg_state;
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
      ASSERT_EQ(state[n.signal(stg.signal(sig).name)], sg.codes[current][sig])
          << GetParam() << " signal " << stg.signal(sig).name << " step "
          << step;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkSpecTest,
                         ::testing::ValuesIn(si_benchmark_names()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(BenchmarkDistinctness, CircuitsDiffer) {
  // The suite should not contain structurally identical netlists under
  // different names (signal counts + gate type multiset as a fingerprint).
  std::set<std::string> fingerprints;
  std::size_t duplicates = 0;
  for (const auto& name : si_benchmark_names()) {
    const SynthResult r = benchmark_circuit(name, SynthStyle::SpeedIndependent);
    std::string fp;
    std::multiset<std::string> parts;
    const auto cover_text = [](const Cover& cover) {
      std::multiset<std::string> cubes;
      for (const auto& cube : cover) {
        std::string t;
        for (const auto lit : cube.lits)
          t += lit == 1 ? '1' : lit == 0 ? '0' : '-';
        cubes.insert(t);
      }
      std::string out;
      for (const auto& c : cubes) out += c + ",";
      return out;
    };
    for (const auto& g : r.netlist.gates()) {
      std::string part = std::string(gate_type_name(g.type)) + "/" +
                         std::to_string(g.fanins.size()) + "/" +
                         cover_text(g.cover) + "/" + cover_text(g.reset_cover);
      parts.insert(part);
    }
    for (const auto& p : parts) fp += p + ";";
    if (!fingerprints.insert(fp).second) ++duplicates;
  }
  // A couple of coincidental twins are tolerable; wholesale duplication is
  // not.
  EXPECT_LE(duplicates, 3u);
}

TEST(Fig1Circuits, MatchPaperBehaviour) {
  std::vector<bool> st_a, st_b;
  const Netlist a = fig1a_circuit(&st_a);
  const Netlist b = fig1b_circuit(&st_b);
  EXPECT_TRUE(a.is_stable_state(st_a));
  EXPECT_TRUE(b.is_stable_state(st_b));
  // AB = 10 races in (a) and starts the oscillation in (b).
  EXPECT_FALSE(ternary_settle(a, st_a, {true, false}).confluent);
  EXPECT_FALSE(ternary_settle(b, st_b, {true, false}).confluent);
}

}  // namespace
}  // namespace xatpg
