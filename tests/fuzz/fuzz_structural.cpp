// Structure-aware netlist fuzzer (the deep-state harness of docs/FUZZING.md).
//
// Byte-level fuzzing of parse_xnl almost never produces a circuit that
// survives check_invariants, so the interesting machinery — CSSG
// construction, settling, the three-phase ATPG engine — would never run.
// This harness turns the input bytes into a *generation recipe* instead:
// seed a valid random netlist, then apply a chain of structure-preserving
// mutations (gate swap / fanin rewire / gate splice / reset perturbation,
// src/netlist/random_netlist.hpp), each re-validated, and drive every mutant
// through four oracles:
//
//   1. canonicalization: write_xnl -> parse_xnl -> write_xnl must preserve
//      the circuit's line set (the serve cache keys on canonical bytes;
//      re-parsing may renumber, so fuzz::sorted_lines is the identity);
//   2. the brute-force CSSG oracle (tests/oracle.hpp): the symbolic CSSG
//      must match explicit enumeration exactly;
//   3. the ATPG engine must run to completion with one outcome per fault;
//   4. the packed-state settling kernel: explore_settling from the reset
//      state under every input pattern must equal the std::set explorer
//      oracle_explore_settling (tests/oracle.hpp) on every field.
//
// Any exception at all is a violation here: every circuit is valid by
// construction, so even CheckError (legal for hostile *text*) means a
// soundness bug on these inputs.
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "atpg/engine.hpp"
#include "atpg/fault.hpp"
#include "fuzz_common.hpp"
#include "netlist/netlist.hpp"
#include "netlist/random_netlist.hpp"
#include "oracle.hpp"
#include "sgraph/cssg.hpp"
#include "sim/explicit.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace {

constexpr std::size_t kSettle = 20;
/// Brute-force enumeration is exponential-ish; cap the circuits it sees.
constexpr std::size_t kOracleMaxSignals = 12;
/// The engine is cheap on toy circuits but not free; cap its inputs too.
constexpr std::size_t kEngineMaxSignals = 16;

void check_roundtrip(const xatpg::Netlist& netlist, const std::uint8_t* data,
                     std::size_t size) {
  const std::string canonical = xatpg::write_xnl_string(netlist);
  std::string again;
  try {
    const xatpg::Netlist reparsed = xatpg::parse_xnl_string(canonical);
    if (reparsed.num_signals() != netlist.num_signals())
      xatpg::fuzz::violation("canonical re-parse changed the signal count",
                             data, size);
    again = xatpg::write_xnl_string(reparsed);
  } catch (const xatpg::CheckError& e) {
    xatpg::fuzz::violation(
        (std::string("mutant failed to re-parse its canonical form: ") +
         e.what())
            .c_str(),
        data, size);
  }
  if (xatpg::fuzz::sorted_lines(again) != xatpg::fuzz::sorted_lines(canonical))
    xatpg::fuzz::violation(
        "mutant write->parse->write changed the circuit's line set", data,
        size);
}

void check_cssg_oracle(const xatpg::Netlist& netlist,
                       const std::vector<bool>& reset,
                       const std::uint8_t* data, std::size_t size) {
  const xatpg::testing::OracleCssg oracle =
      xatpg::testing::oracle_cssg(netlist, reset, kSettle);
  xatpg::CssgOptions options;
  options.k = kSettle;
  const std::string mismatch =
      xatpg::testing::cssg_oracle_mismatch(netlist, reset, oracle, options);
  if (!mismatch.empty())
    xatpg::fuzz::violation(
        (std::string("symbolic CSSG diverged from brute force: ") + mismatch +
         "\ncircuit:\n" + xatpg::write_xnl_string(netlist))
            .c_str(),
        data, size);
}

void check_explore_oracle(const xatpg::Netlist& netlist,
                          const std::vector<bool>& reset,
                          const std::uint8_t* data, std::size_t size) {
  const std::size_t m = netlist.inputs().size();
  for (std::uint64_t bits = 0; bits < (1ull << m); ++bits) {
    std::vector<bool> pattern(m);
    for (std::size_t i = 0; i < m; ++i) pattern[i] = (bits >> i) & 1;
    const std::string mismatch = xatpg::testing::explore_mismatch(
        xatpg::explore_settling(netlist, reset, pattern, kSettle),
        xatpg::testing::oracle_explore_settling(netlist, reset, pattern,
                                                kSettle));
    if (!mismatch.empty())
      xatpg::fuzz::violation(
          (std::string("settling kernel diverged from the std::set oracle "
                       "on ") +
           mismatch + "\ncircuit:\n" + xatpg::write_xnl_string(netlist))
              .c_str(),
          data, size);
  }
}

void check_engine(const xatpg::Netlist& netlist,
                  const std::vector<bool>& reset, const std::uint8_t* data,
                  std::size_t size) {
  xatpg::AtpgOptions options;
  options.seed = 7;
  options.random_budget = 8;
  options.random_walk_len = 4;
  const std::vector<xatpg::Fault> faults = xatpg::input_stuck_faults(netlist);
  xatpg::AtpgEngine engine(netlist, reset, options);
  const xatpg::AtpgResult result = engine.run(faults);
  if (result.outcomes.size() != faults.size())
    xatpg::fuzz::violation("engine returned wrong outcome count", data, size);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0 || size > 64) return 0;  // a recipe, not a document
  std::uint64_t seed = 0xa5a5a5a5ull;
  for (std::size_t i = 0; i < size; ++i) seed = seed * 1099511628211ull + data[i];
  xatpg::Rng rng(seed);

  xatpg::RandomNetlistOptions generate;
  generate.num_inputs = 3;
  generate.num_gates = 4 + rng.below(4);
  std::vector<bool> reset;
  xatpg::Netlist current;
  try {
    current = xatpg::random_netlist(rng.next(), generate, &reset);
  } catch (const xatpg::CheckError&) {
    return 0;  // generator refused the seed (non-confluent from all-false)
  }

  try {
    const std::size_t rounds = 1 + rng.below(3);
    for (std::size_t round = 0; round < rounds; ++round) {
      std::optional<xatpg::MutatedNetlist> mutant =
          xatpg::mutate_netlist(current, rng);
      if (!mutant) break;
      current = std::move(mutant->netlist);
      reset = std::move(mutant->reset);

      check_roundtrip(current, data, size);
      check_explore_oracle(current, reset, data, size);
      if (current.num_signals() <= kOracleMaxSignals)
        check_cssg_oracle(current, reset, data, size);
      if (current.num_signals() <= kEngineMaxSignals)
        check_engine(current, reset, data, size);
    }
  } catch (const std::exception& e) {
    xatpg::fuzz::violation(
        (std::string("exception on a valid-by-construction circuit: ") +
         e.what())
            .c_str(),
        data, size);
  } catch (...) {
    xatpg::fuzz::violation("non-std exception on a valid circuit", data, size);
  }
  return 0;
}
