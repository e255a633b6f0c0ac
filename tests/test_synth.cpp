#include "synth/synth.hpp"

#include <gtest/gtest.h>

#include "benchmarks/benchmarks.hpp"
#include "oracle.hpp"
#include "sim/ternary.hpp"
#include "synth/cover.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace xatpg {
namespace {

// --- cover algebra ------------------------------------------------------------

TEST(MinCube, CoversMinterm) {
  // cube x1 x2' over 3 vars: care 110, value 010 (bit0=x0 free).
  const MinCube c{0b110, 0b010};
  EXPECT_TRUE(c.covers_minterm(0b010));
  EXPECT_TRUE(c.covers_minterm(0b011));
  EXPECT_FALSE(c.covers_minterm(0b110));
}

TEST(MinCube, Containment) {
  const MinCube big{0b100, 0b100};    // x2
  const MinCube small{0b110, 0b110};  // x2 x1
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(big));
}

TEST(PrimeImplicants, XorHasNoMerging) {
  // on = {01, 10}, off = {00, 11}: two primes, nothing combines.
  const auto primes = prime_implicants({0b00, 0b11}, 2);
  EXPECT_EQ(primes.size(), 2u);
}

TEST(PrimeImplicants, FullCubeCollapses) {
  const auto primes = prime_implicants({}, 2);
  ASSERT_EQ(primes.size(), 1u);
  EXPECT_EQ(primes[0].care, 0u);  // tautology cube
}

TEST(PrimeImplicants, DontCaresEnlargePrimes) {
  // f: on = {11}, dc = {10}, off = {00, 01} over 2 vars -> prime x1 (bit1).
  const auto primes = prime_implicants({0b00, 0b01}, 2);
  bool found = false;
  for (const auto& p : primes)
    if (p.care == 0b10 && p.value == 0b10) found = true;
  EXPECT_TRUE(found);
}

TEST(MinimizeSop, CoversExactlyOnSet) {
  // Random-ish function over 4 vars.
  const std::vector<std::uint32_t> on{0, 1, 3, 7, 8, 9, 15};
  std::vector<std::uint32_t> off;
  for (std::uint32_t m = 0; m < 16; ++m)
    if (std::find(on.begin(), on.end(), m) == on.end()) off.push_back(m);
  const auto cover = minimize_sop(on, off, 4);
  EXPECT_TRUE(cover_is_correct(cover, on, off));
}

TEST(MinimizeSop, UsesDontCares) {
  // on = {3}, dc = {1, 2, 0}, off = {} -> single tautology-ish cube allowed.
  const auto cover = minimize_sop({3}, {}, 2);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].num_literals(), 0);
}

TEST(MinimizeSop, EmptyOnSet) {
  // on = {}, dc = {0}, off = {1, 2, 3}.
  EXPECT_TRUE(minimize_sop({}, {1, 2, 3}, 2).empty());
}

TEST(MinimizeSop, ParameterizedExhaustive3Var) {
  // Every 3-variable function: the minimized cover must match the truth
  // table exactly (no dc).
  for (std::uint32_t tt = 0; tt < 256; ++tt) {
    std::vector<std::uint32_t> on, off;
    for (std::uint32_t m = 0; m < 8; ++m)
      ((tt >> m) & 1 ? on : off).push_back(m);
    const auto cover = minimize_sop(on, off, 3);
    EXPECT_TRUE(cover_is_correct(cover, on, off)) << "truth table " << tt;
  }
}

TEST(PrimeImplicants, MatchQuineMcCluskeyOracle) {
  // Seeded random functions over 1-9 variables, each minterm dealt to on,
  // off or dc with per-function weights.  Every eighth function has an
  // empty off-set and every eighth (offset by four) a full one.  The primes
  // from the off-set and the cover built on them must equal pairwise QM
  // over on ∪ dc and its cover, element for element.
  Rng rng(2024);
  std::size_t empty_off = 0, full_off = 0, dc_only_primes = 0;
  for (int f = 0; f < 2000; ++f) {
    const unsigned nvars = 1 + static_cast<unsigned>(f) % 9;
    std::uint64_t w_on = rng.below(4), w_off = rng.below(4),
                  w_dc = 1 + rng.below(8);
    if (f % 8 == 0) w_off = 0;
    if (f % 8 == 4) {
      w_on = w_dc = 0;
      w_off = 1;
    }
    std::vector<std::uint32_t> on, off, dc;
    for (std::uint32_t m = 0; m < (1u << nvars); ++m) {
      const std::uint64_t pick = rng.below(w_on + w_off + w_dc);
      (pick < w_on ? on : pick < w_on + w_off ? off : dc).push_back(m);
    }
    empty_off += off.empty();
    full_off += off.size() == (1u << nvars);

    const auto primes = prime_implicants(off, nvars);
    const auto oracle = testing::oracle_prime_implicants(on, dc, nvars);
    ASSERT_EQ(primes, oracle)
        << "function " << f << " over " << nvars << " vars";
    EXPECT_EQ(minimize_sop(on, off, nvars),
              testing::oracle_greedy_cover(on, oracle))
        << "function " << f << " over " << nvars << " vars";
    for (const MinCube& p : primes)
      dc_only_primes += std::none_of(on.begin(), on.end(), [&](auto m) {
        return p.covers_minterm(m);
      });
  }
  EXPECT_GE(empty_off, 250u);
  EXPECT_GE(full_off, 250u);
  EXPECT_GT(dc_only_primes, 0u);
}

TEST(Consensus, BasicResolvent) {
  // x y + x' z -> consensus y z.
  const MinCube a{0b011, 0b011};  // x0 x1  (bits 0,1)
  const MinCube b{0b101, 0b100};  // x0' x2
  MinCube c;
  ASSERT_TRUE(consensus(a, b, &c));
  EXPECT_EQ(c.care, 0b110u);
  EXPECT_EQ(c.value, 0b110u);
}

TEST(Consensus, NoClashNoConsensus) {
  const MinCube a{0b001, 0b001};
  const MinCube b{0b010, 0b010};
  MinCube c;
  EXPECT_FALSE(consensus(a, b, &c));  // zero clashing variables
}

TEST(Consensus, AddConsensusCubesClosesCover) {
  // x y + x' z: consensus y z must be added.
  std::vector<MinCube> cover{{0b011, 0b011}, {0b101, 0b100}};
  const auto added = add_consensus_cubes(cover);
  EXPECT_GE(added, 1u);
  bool found = false;
  for (const auto& c : cover)
    if (c.care == 0b110 && c.value == 0b110) found = true;
  EXPECT_TRUE(found);
  // Function unchanged: consensus terms are implicants.
  for (std::uint32_t m = 0; m < 8; ++m) {
    const bool orig = ((m & 0b011) == 0b011) || ((m & 0b101) == 0b100);
    EXPECT_EQ(cover_eval(cover, m), orig) << m;
  }
}

// --- synthesis ---------------------------------------------------------------

class SynthCelem : public ::testing::Test {
 protected:
  SynthCelem() : stg(make_celem("celem", 2)), sg(expand_stg(stg)) {}
  Stg stg;
  StateGraph sg;
};

TEST_F(SynthCelem, SpeedIndependentProducesGc) {
  const SynthResult result = synthesize(sg, {SynthStyle::SpeedIndependent});
  const Netlist& n = result.netlist;
  EXPECT_EQ(n.inputs().size(), 2u);
  EXPECT_EQ(n.outputs().size(), 1u);
  const Gate& ack = n.gate(n.signal("ack"));
  EXPECT_EQ(ack.type, GateType::Gc);
  EXPECT_TRUE(n.is_stable_state(result.reset_state));
}

TEST_F(SynthCelem, SpeedIndependentImplementsNextState) {
  const SynthResult result = synthesize(sg, {SynthStyle::SpeedIndependent});
  const Netlist& n = result.netlist;
  // For every reachable SG state, the netlist gate target must equal the
  // SG next-state function.
  for (std::uint32_t st = 0; st < sg.num_states(); ++st) {
    std::vector<bool> state(n.num_signals(), false);
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
      state[n.signal(stg.signal(sig).name)] = sg.codes[st][sig];
    EXPECT_EQ(n.eval_gate_bool(n.signal("ack"), state), sg.next_value(st, 2))
        << "state " << st;
  }
}

TEST_F(SynthCelem, BoundedDelayProducesAndOr) {
  SynthOptions options;
  options.style = SynthStyle::BoundedDelay;
  const SynthResult result = synthesize(sg, options);
  const Netlist& n = result.netlist;
  EXPECT_TRUE(n.is_stable_state(result.reset_state));
  // ack = r0 r1 + ack (r0 + r1) needs AND terms and an OR.
  EXPECT_EQ(n.gate(n.signal("ack")).type, GateType::Or);
}

TEST_F(SynthCelem, BoundedDelayImplementsNextStateAfterSettling) {
  SynthOptions options;
  options.style = SynthStyle::BoundedDelay;
  const SynthResult result = synthesize(sg, options);
  const Netlist& n = result.netlist;
  // From reset, walk the SG behaviour: each SG input event, applied as a
  // synchronous vector, must settle the netlist to the SG's next stable
  // situation.  (Spot-check the first rising phase: r0+, then r1+.)
  std::vector<bool> state = result.reset_state;
  auto apply = [&](bool r0, bool r1) {
    const auto settled = ternary_settle(n, state, {r0, r1});
    ASSERT_TRUE(settled.confluent);
    state = settled.final_state();
  };
  apply(true, false);
  EXPECT_FALSE(state[n.signal("ack")]);
  apply(true, true);
  EXPECT_TRUE(state[n.signal("ack")]);
  apply(false, true);
  EXPECT_TRUE(state[n.signal("ack")]);  // C-element holds
  apply(false, false);
  EXPECT_FALSE(state[n.signal("ack")]);
}

TEST(Synth, StandardCArchitecture) {
  const Stg stg = make_celem("celem", 2);
  const StateGraph sg = expand_stg(stg);
  SynthOptions options;
  options.style = SynthStyle::SpeedIndependent;
  options.architecture = SiArchitecture::StandardC;
  const SynthResult result = synthesize(sg, options);
  const Netlist& n = result.netlist;
  EXPECT_TRUE(n.is_stable_state(result.reset_state));
  // The output signal is now a real 2-input C-element.
  EXPECT_EQ(n.gate(n.signal("ack")).type, GateType::Celem);
  // More fault sites than the atomic-gC mapping of the same function.
  const SynthResult atomic = synthesize(sg, {SynthStyle::SpeedIndependent});
  EXPECT_GT(n.num_pins(), atomic.netlist.num_pins());
  // Functional fidelity on reachable codes (after relaxing the networks).
  for (std::uint32_t st = 0; st < sg.num_states(); ++st) {
    std::vector<bool> state(n.num_signals(), false);
    for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig)
      state[n.signal(stg.signal(sig).name)] = sg.codes[st][sig];
    for (std::size_t pass = 0; pass < n.num_signals(); ++pass) {
      bool changed = false;
      for (SignalId s = 0; s < n.num_signals(); ++s) {
        if (n.is_input(s) || s == n.signal("ack")) continue;
        const bool target = n.eval_gate_bool(s, state);
        if (state[s] != target) {
          state[s] = target;
          changed = true;
        }
      }
      if (!changed) break;
    }
    EXPECT_EQ(n.eval_gate_bool(n.signal("ack"), state), sg.next_value(st, 2))
        << "state " << st;
  }
}

TEST(Synth, RedundantCoversAddGates) {
  const Stg stg = make_celem("celem", 2);
  const StateGraph sg = expand_stg(stg);
  SynthOptions plain;
  plain.style = SynthStyle::BoundedDelay;
  plain.hazard_consensus = true;
  SynthOptions redundant = plain;
  redundant.extra_redundancy = true;
  const auto a = synthesize(sg, plain);
  const auto b = synthesize(sg, redundant);
  EXPECT_GE(b.num_cubes, a.num_cubes);
}

TEST(Synth, CscViolationRejected) {
  Stg stg("csc-broken");
  const auto r = stg.add_signal("r", SignalKind::Input, false);
  const auto a = stg.add_signal("a", SignalKind::Output, false);
  const auto rp = stg.add_transition(r, true);
  const auto ap = stg.add_transition(a, true);
  const auto rm = stg.add_transition(r, false);
  const auto am = stg.add_transition(a, false);
  const auto ap2 = stg.add_transition(a, true);
  const auto am2 = stg.add_transition(a, false);
  stg.arc(rp, ap);
  stg.arc(ap, rm);
  stg.arc(rm, am);
  stg.arc(am, ap2);
  stg.arc(ap2, am2);
  stg.arc(am2, rp, 1);
  const StateGraph sg = expand_stg(stg);
  EXPECT_THROW(synthesize(sg, {}), CheckError);
}

TEST(Synth, NsFunctionPartitionsCodes) {
  const Stg stg = make_celem("celem", 2);
  const StateGraph sg = expand_stg(stg);
  const NsFunction ns = next_state_function(sg, 2);
  // on + off = reachable codes (8 of them) = all 2^3 codes: nothing is a
  // don't-care.
  EXPECT_EQ(ns.on.size() + ns.off.size(), 8u);
  EXPECT_EQ(ns.on.size() + ns.off.size(), 1u << 3);
}

TEST(Synth, SixteenSignalSequencerScales) {
  // 16 signals, 32 states: the don't-care space is all but 32 of 65536
  // codes, so synthesis must not enumerate it.  Each set/reset cover is
  // checked against the signal's own on/off codes, and the gC netlist
  // against the SG's next-state function in every state.
  const Stg stg = make_sequencer("seq", 8);
  const StateGraph sg = expand_stg(stg);
  ASSERT_EQ(stg.num_signals(), 16u);
  ASSERT_EQ(sg.num_states(), 32u);
  const SynthResult result = synthesize(sg);
  const Netlist& n = result.netlist;
  EXPECT_TRUE(n.is_stable_state(result.reset_state));
  for (std::uint32_t sig = 0; sig < stg.num_signals(); ++sig) {
    if (stg.signal(sig).kind == SignalKind::Input) continue;
    const std::string& name = stg.signal(sig).name;
    const NsFunction set = set_function(sg, sig);
    const NsFunction reset = reset_function(sg, sig);
    EXPECT_TRUE(cover_is_correct(minimize_sop(set.on, set.off, set.nvars),
                                 set.on, set.off))
        << name << " set";
    EXPECT_TRUE(cover_is_correct(
        minimize_sop(reset.on, reset.off, reset.nvars), reset.on, reset.off))
        << name << " reset";
    for (std::uint32_t st = 0; st < sg.num_states(); ++st) {
      std::vector<bool> state(n.num_signals(), false);
      for (std::uint32_t s = 0; s < stg.num_signals(); ++s)
        state[n.signal(stg.signal(s).name)] = sg.codes[st][s];
      EXPECT_EQ(n.eval_gate_bool(n.signal(name), state),
                sg.next_value(st, sig))
          << name << " in state " << st;
    }
  }
}

TEST(Synth, MoreThanTwentySignalsRejected) {
  const StateGraph sg = expand_stg(make_sequencer("seq", 11));
  ASSERT_EQ(sg.stg->num_signals(), 22u);
  try {
    synthesize(sg);
    ADD_FAILURE() << "a 22-signal STG was synthesized";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("synthesis limit of 20"),
              std::string::npos)
        << e.what();
  }
}

TEST(Synth, SetResetFunctionsDisjoint) {
  const Stg stg = make_celem("celem", 2);
  const StateGraph sg = expand_stg(stg);
  const NsFunction set = set_function(sg, 2);
  const NsFunction reset = reset_function(sg, 2);
  for (const auto m : set.on)
    EXPECT_EQ(std::count(reset.on.begin(), reset.on.end(), m), 0);
}

}  // namespace
}  // namespace xatpg
