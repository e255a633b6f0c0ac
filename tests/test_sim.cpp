#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "netlist/netlist.hpp"
#include "sim/explicit.hpp"
#include "sim/ternary.hpp"

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
