// Golden-value regression tests: exact BDD-manager node counts and CSSG
// state/edge counts for the fixture circuits, a digest of every
// synthesized benchmark netlist, and every row of the paper's Tables 1/2
// with its Figure 2 sizes.
//
// These lock in the paper-table semantics: the CSSG statistics are what the
// Figure 2 / Table 1 columns are computed from, and the BDD counts pin the
// symbolic core's behaviour (hashing, GC thresholds, operation ordering).
// Every number below is deterministic — the library draws randomness only
// from the seeded xoshiro Rng — so any drift is a real semantic change and
// must be reviewed, not papered over.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string_view>

#include "bdd/bdd.hpp"
#include "benchmarks/benchmarks.hpp"
#include "fixtures.hpp"
#include "perf/perf.hpp"
#include "sgraph/cssg.hpp"
#include "util/random.hpp"

namespace xatpg {
namespace {

struct CssgGolden {
  const char* name;
  fixtures::Circuit (*make)();
  std::size_t k;
  std::size_t num_signals, num_pins;
  double reachable, stable, tcr_pairs, nonconfluent, unstable, edges,
      cssg_reachable;
};

class CssgGoldenTest : public ::testing::TestWithParam<CssgGolden> {};

TEST_P(CssgGoldenTest, StateAndEdgeCounts) {
  const CssgGolden& g = GetParam();
  const fixtures::Circuit fix = g.make();
  EXPECT_EQ(fix.netlist.num_signals(), g.num_signals);
  EXPECT_EQ(fix.netlist.num_pins(), g.num_pins);

  CssgOptions options;
  options.k = g.k;
  Cssg cssg(fix.netlist, {fix.reset}, options);
  const CssgStats& st = cssg.stats();
  EXPECT_DOUBLE_EQ(st.reachable_states, g.reachable);
  EXPECT_DOUBLE_EQ(st.stable_states, g.stable);
  EXPECT_DOUBLE_EQ(st.tcr_pairs, g.tcr_pairs);
  EXPECT_DOUBLE_EQ(st.nonconfluent_pairs, g.nonconfluent);
  EXPECT_DOUBLE_EQ(st.unstable_pairs, g.unstable);
  EXPECT_DOUBLE_EQ(st.cssg_edges, g.edges);
  EXPECT_DOUBLE_EQ(st.cssg_reachable_states, g.cssg_reachable);
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, CssgGoldenTest,
    ::testing::Values(
        // Figure 1(a): 44 transient-reachable states collapse to 7 stable
        // ones; 4 of the 23 TCR pairs are pruned as non-confluent races.
        CssgGolden{"fig1a", fixtures::fig1a, 20, 6, 6, 44, 7, 23, 4, 0, 19, 7},
        // Figure 1(b): the oscillating ring prunes both non-confluent and
        // unstable pairs, leaving a 4-edge CSSG over 3 stable states.
        CssgGolden{"fig1b", fixtures::fig1b, 20, 6, 6, 33, 3, 13, 6, 3, 4, 3},
        // A lone C-element is race-free: every TCR pair survives.
        CssgGolden{"celem", fixtures::celem, 20, 3, 2, 8, 6, 18, 0, 0, 18, 6},
        // The gC transparent latch has the same state-count shape as the
        // C-element (both are 2-input state-holding gates).
        CssgGolden{"latch", fixtures::async_latch, 20, 3, 2, 8, 6, 18, 0, 0,
                   18, 6},
        // Two-stage pipeline controller: 2 racy pairs pruned.
        CssgGolden{"pipeline2", fixtures::pipeline2, 24, 5, 7, 26, 8, 25, 2, 0,
                   23, 8}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

// --- BDD manager node accounting ---------------------------------------------

TEST(BddGolden, SeededFunctionNodeCounts) {
  // Disjunction of eight seeded random functions over 12 variables: the
  // unique-table contents after construction are a function of the node
  // hashing, reduction and complement-canonicalization rules only.  (The
  // same build cost 1278 nodes before complemented edges.)
  BddManager mgr(12);
  Rng rng(2024);
  Bdd acc = mgr.bdd_false();
  for (int i = 0; i < 8; ++i) acc |= fixtures::random_bdd(mgr, rng, 4, 12);
  EXPECT_EQ(mgr.allocated_nodes(), 1156u);
  EXPECT_EQ(mgr.peak_nodes(), 1156u);
  EXPECT_EQ(mgr.gc_count(), 0u);
}

TEST(BddGolden, FreshManagerBaseline) {
  // A fresh manager owns exactly the single terminal node (TRUE; FALSE is
  // its complemented edge); single-literal nodes are created lazily on
  // first var() use, and nvar shares var's node through a complement.
  BddManager mgr(8);
  EXPECT_EQ(mgr.allocated_nodes(), 1u);
  (void)mgr.var(0);
  EXPECT_EQ(mgr.allocated_nodes(), 2u);
  (void)mgr.var(0);  // cached: no new node
  EXPECT_EQ(mgr.allocated_nodes(), 2u);
  (void)mgr.nvar(0);  // a complemented edge: still no new node
  EXPECT_EQ(mgr.allocated_nodes(), 2u);
}

TEST(BddGolden, CssgPeakNodesOnFixtures) {
  // Peak live-node watermark while building the full symbolic pipeline.
  // These are the numbers the ordering/k ablation benchmarks report; a
  // regression here is a regression in Figure 2 reproduction quality.
  struct Row {
    fixtures::Circuit (*make)();
    std::size_t k;
    std::size_t peak;
  };
  for (const Row& row : {Row{fixtures::fig1a, 20, 1417},
                         Row{fixtures::fig1b, 20, 1363},
                         Row{fixtures::celem, 20, 184},
                         Row{fixtures::async_latch, 20, 182},
                         Row{fixtures::pipeline2, 24, 910}}) {
    const fixtures::Circuit fix = row.make();
    CssgOptions options;
    options.k = row.k;
    Cssg cssg(fix.netlist, {fix.reset}, options);
    EXPECT_EQ(cssg.stats().peak_bdd_nodes, row.peak) << fix.netlist.name();
  }
}

TEST(BddGolden, PostSiftNodeCountsOnFixtures) {
  // Dynamic-reordering regression lock: live node counts entering and
  // leaving one sifting pass over the fully built symbolic pipeline.  Two
  // invariants ride along with the exact numbers: a sifting pass may never
  // leave the table LARGER than it found it (the starting position is
  // always a candidate, so the configured max_growth bound only limits
  // transients mid-walk), and a second pass from the already-optimized
  // order may not grow it either.
  struct Row {
    const char* name;
    fixtures::Circuit (*make)();
    std::size_t k;
    std::size_t before, after;
  };
  for (const Row& row : {Row{"fig1a", fixtures::fig1a, 20, 229, 199},
                         Row{"fig1b", fixtures::fig1b, 20, 223, 196},
                         Row{"chain", fixtures::chain, 20, 45, 45},
                         Row{"celem", fixtures::celem, 20, 54, 54},
                         Row{"latch", fixtures::async_latch, 20, 53, 47},
                         Row{"pipeline2", fixtures::pipeline2, 24, 181, 168}}) {
    const fixtures::Circuit fix = row.make();
    CssgOptions options;
    options.k = row.k;
    Cssg cssg(fix.netlist, {fix.reset}, options);
    const ReorderStats pass = cssg.encoding().sift_now();
    EXPECT_EQ(pass.size_before, row.before) << row.name;
    EXPECT_EQ(pass.size_after, row.after) << row.name;
    EXPECT_LE(pass.size_after, pass.size_before) << row.name;
    const ReorderStats again = cssg.encoding().sift_now();
    EXPECT_LE(again.size_after, row.after) << row.name << " (second pass)";
  }
}

// --- random-netlist generator stability --------------------------------------

TEST(GeneratorGolden, Seed7Shape) {
  // The generator feeds property tests across suites; its output for a
  // given seed is part of the fixture contract.
  const fixtures::Circuit r = fixtures::random_netlist(7);
  EXPECT_EQ(r.netlist.name(), "random7");
  EXPECT_EQ(r.netlist.num_signals(), 11u);
  EXPECT_EQ(r.netlist.num_pins(), 18u);
  EXPECT_TRUE(r.netlist.is_stable_state(r.reset));
}

// --- synthesized benchmark netlists -----------------------------------------

// 64-bit FNV-1a over the canonical .xnl text, the reset-state bits and the
// cube count.  Synthesis is deterministic, so a changed digest means a
// changed netlist (different primes, cover choice or gate mapping) and must
// be reviewed like any other golden drift.
std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t synthesis_digest(const SynthResult& r) {
  std::string reset;
  for (const bool bit : r.reset_state) reset += bit ? '1' : '0';
  std::uint64_t hash =
      fnv1a(0xcbf29ce484222325ull, write_xnl_string(r.netlist));
  hash = fnv1a(hash, "\n" + reset + "\n");
  return fnv1a(hash, std::to_string(r.num_cubes));
}

enum class Mapping { AtomicGc, StandardC, BoundedDelay };

SynthResult synthesize_benchmark(const std::string& name, Mapping mapping) {
  if (mapping == Mapping::BoundedDelay)
    return benchmark_circuit(name, SynthStyle::BoundedDelay);
  SynthOptions options;
  options.style = SynthStyle::SpeedIndependent;
  options.architecture = mapping == Mapping::StandardC
                             ? SiArchitecture::StandardC
                             : SiArchitecture::AtomicGc;
  return synthesize(expand_stg(benchmark_stg(name)), options);
}

struct SynthGolden {
  const char* name;
  std::uint64_t digest;
};

void check_synthesis_digests(Mapping mapping, const char* label,
                             const std::vector<std::string>& suite,
                             const std::vector<SynthGolden>& golden) {
  ASSERT_EQ(golden.size(), suite.size()) << label;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const std::string& name = suite[i];
    ASSERT_EQ(name, golden[i].name) << label << " table out of registry order";
    const std::uint64_t digest =
        synthesis_digest(synthesize_benchmark(name, mapping));
    EXPECT_EQ(digest, golden[i].digest)
        << label << "/" << name << ": synthesized netlist changed (digest 0x"
        << std::hex << digest << ")";
  }
}

TEST(SynthGolden, SpeedIndependentGc) {
  check_synthesis_digests(Mapping::AtomicGc, "si-gC", si_benchmark_names(), {
      {"alloc-outbound", 0x8b2082ee75412c41ull},
      {"atod", 0x4e3a9b0fc9f6b525ull},
      {"chu150", 0xeab28aaa66387d03ull},
      {"converta", 0xa218bead622cb89full},
      {"dff", 0x3a28361cd4cce923ull},
      {"ebergen", 0x90c4e30dc65846f0ull},
      {"hazard", 0x29762df7b47baf6aull},
      {"master-read", 0x25a4faf7e9f8e4a5ull},
      {"mmu", 0x0ffe26f34d6629e5ull},
      {"mp-forward-pkt", 0x4a881cf169e0e5f9ull},
      {"mr1", 0x2107137135183b88ull},
      {"nak-pa", 0x20548a939472713aull},
      {"nowick", 0x0b64948f53ef974aull},
      {"ram-read-sbuf", 0x3754f054e6b2ddeaull},
      {"rcv-setup", 0xfad66ad232e52fd7ull},
      {"rpdft", 0xd107fe0a2b2a405cull},
      {"sbuf-ram-write", 0xedb35c0db24afb2dull},
      {"sbuf-send-ctl", 0x31d97a7c7cc83b7aull},
      {"sbuf-send-pkt2", 0x971d22c38917dc77ull},
      {"seq4", 0xaaf8f1b2f920e3dfull},
      {"trimos-send", 0xb9ca39ba5ca7ceeeull},
      {"vbe10b", 0xbc1bb6275039b235ull},
      {"vbe5b", 0x871afba693a17a53ull},
      {"vbe6a", 0x74f8756a7361f358ull},
  });
}

TEST(SynthGolden, SpeedIndependentStandardC) {
  check_synthesis_digests(Mapping::StandardC, "si-standard-C",
                          si_benchmark_names(), {
      {"alloc-outbound", 0x87834fbbb14dc672ull},
      {"atod", 0x35366f9da5fd207dull},
      {"chu150", 0x613e61bffd2ac779ull},
      {"converta", 0x295f2b75f58aaecdull},
      {"dff", 0x57b9b79028e98f94ull},
      {"ebergen", 0x6f1b8e49cc9d9bd8ull},
      {"hazard", 0xd164758f5bc86718ull},
      {"master-read", 0xd03f7ecae5782587ull},
      {"mmu", 0x095639c8c82acd10ull},
      {"mp-forward-pkt", 0x7449d6952024a7acull},
      {"mr1", 0x7836d6624f7ff5e1ull},
      {"nak-pa", 0x7c649aed3f8356e2ull},
      {"nowick", 0x94c16b62d03e4ae6ull},
      {"ram-read-sbuf", 0xfbcf660796c532a1ull},
      {"rcv-setup", 0xb21d5fe433a36b7cull},
      {"rpdft", 0x0efc6274a56e68a1ull},
      {"sbuf-ram-write", 0xce0ef2026c250ab4ull},
      {"sbuf-send-ctl", 0xaafdd766a02b795bull},
      {"sbuf-send-pkt2", 0x1ba6c94fac041696ull},
      {"seq4", 0x11a98f749c10b84full},
      {"trimos-send", 0xe31954b2362247e8ull},
      {"vbe10b", 0xad91ffc947254e76ull},
      {"vbe5b", 0xbfed5513065d5c92ull},
      {"vbe6a", 0xe0df7914e4e092c8ull},
  });
}

TEST(SynthGolden, BoundedDelay) {
  check_synthesis_digests(Mapping::BoundedDelay, "bd", bd_benchmark_names(), {
      {"chu150", 0x90bafd24b34e8071ull},
      {"converta", 0x39f746512d5cdfcdull},
      {"ebergen", 0x20224fc38711403cull},
      {"hazard", 0x9b5636b937266325ull},
      {"nowick", 0x945291be04de1708ull},
      {"rpdft", 0x6ac347f458de80b6ull},
      {"trimos-send", 0xd8b5297834e18cc3ull},
      {"vbe10b", 0x3d02399191fa02c9ull},
      {"vbe6a", 0xe6d580b4d4853cb7ull},
  });
}

// --- the paper's tables -----------------------------------------------------

// Every row of Table 1 (si/) and Table 2 (bd/) as `xatpg bench --filter si/
// --random-budget 12 --random-walk-len 6` prints it, with the Figure 2 sizes
// of the same circuit.  The options are the paper-table settings; the
// values were produced by the standalone table and figure programs this
// driver replaced, so a changed row is a changed paper result.
struct TableRow {
  const char* name;
  /// Output-stuck tot/cov, input-stuck tot/cov, input-stuck rnd/3-ph/sim.
  std::array<std::size_t, 7> atpg;
  /// Reachable, stable, TCR_k, non-confluent, oscillating, CSSG edges,
  /// CSSG-reachable.
  std::array<double, 7> cssg;
};

void check_table(const char* table, perf::CorpusEntry::Kind kind,
                 const std::vector<TableRow>& golden) {
  AtpgOptions options;
  options.k = 24;
  options.random_budget = 12;
  options.random_walk_len = 6;
  options.seed = 1;
  std::size_t next = 0;
  for (const perf::CorpusEntry& entry : perf::default_corpus()) {
    if (entry.kind != kind) continue;
    ASSERT_LT(next, golden.size()) << table << ": more circuits than rows";
    const TableRow& row = golden[next++];
    ASSERT_EQ(entry.name, row.name) << table << " rows out of corpus order";
    const perf::CircuitRecord record = perf::run_entry(entry, options);
    const AtpgStats& o = record.output_stuck;
    const AtpgStats& i = record.input_stuck;
    EXPECT_EQ((std::array<std::size_t, 7>{o.total_faults, o.covered,
                                          i.total_faults, i.covered,
                                          i.by_random, i.by_three_phase,
                                          i.by_fault_sim}),
              row.atpg)
        << table << "/" << row.name
        << ": out tot/cov, in tot/cov, rnd/3-ph/sim changed";
    const CssgStats& s = record.cssg;
    EXPECT_EQ((std::array<double, 7>{s.reachable_states, s.stable_states,
                                     s.tcr_pairs, s.nonconfluent_pairs,
                                     s.unstable_pairs, s.cssg_edges,
                                     s.cssg_reachable_states}),
              row.cssg)
        << "Figure 2/" << table << "/" << row.name << ": CSSG sizes changed";
  }
  EXPECT_EQ(next, golden.size()) << table << ": fewer circuits than rows";
}

TEST(PaperTableGolden, Table1SpeedIndependent) {
  check_table("Table 1", perf::CorpusEntry::Kind::SiBenchmark, {
      {"alloc-outbound", {12, 12, 8, 8, 7, 1, 0}, {64, 12, 84, 0, 0, 84, 12}},
      {"atod", {12, 12, 6, 6, 6, 0, 0}, {64, 8, 56, 0, 0, 56, 8}},
      {"chu150", {8, 8, 6, 6, 6, 0, 0}, {10, 6, 18, 0, 0, 18, 6}},
      {"converta", {10, 10, 6, 6, 6, 0, 0}, {24, 4, 12, 0, 0, 12, 4}},
      {"dff", {6, 6, 4, 4, 4, 0, 0}, {8, 5, 15, 0, 0, 15, 5}},
      {"ebergen", {12, 12, 8, 8, 8, 0, 0}, {36, 4, 12, 0, 0, 12, 4}},
      {"hazard", {14, 14, 10, 10, 9, 1, 0}, {80, 12, 84, 0, 0, 84, 12}},
      {"master-read", {18, 18, 14, 14, 13, 1, 0}, {288, 28, 420, 0, 0, 420, 28}},
      {"mmu", {16, 16, 12, 12, 11, 1, 0}, {256, 28, 420, 0, 0, 420, 28}},
      {"mp-forward-pkt", {14, 14, 8, 8, 8, 0, 0}, {96, 8, 56, 0, 0, 56, 8}},
      {"mr1", {20, 20, 10, 10, 10, 0, 0}, {1024, 32, 992, 0, 0, 992, 32}},
      {"nak-pa", {12, 12, 18, 16, 16, 0, 0}, {33, 8, 24, 0, 0, 24, 8}},
      {"nowick", {10, 10, 6, 6, 6, 0, 0}, {24, 4, 12, 0, 0, 12, 4}},
      {"ram-read-sbuf", {18, 18, 10, 10, 10, 0, 0}, {384, 16, 240, 0, 0, 240, 16}},
      {"rcv-setup", {8, 8, 4, 4, 4, 0, 0}, {16, 4, 12, 0, 0, 12, 4}},
      {"rpdft", {6, 6, 4, 4, 4, 0, 0}, {8, 6, 18, 0, 0, 18, 6}},
      {"sbuf-ram-write", {14, 14, 14, 12, 12, 0, 0}, {104, 12, 88, 8, 0, 80, 12}},
      {"sbuf-send-ctl", {20, 20, 12, 12, 12, 0, 0}, {576, 16, 240, 0, 0, 240, 16}},
      {"sbuf-send-pkt2", {16, 16, 10, 10, 10, 0, 0}, {144, 8, 56, 0, 0, 56, 8}},
      {"seq4", {16, 16, 8, 8, 8, 0, 0}, {256, 16, 240, 0, 0, 240, 16}},
      {"trimos-send", {12, 12, 30, 27, 24, 3, 0}, {16, 6, 6, 0, 0, 6, 6}},
      {"vbe10b", {12, 12, 16, 16, 15, 1, 0}, {46, 8, 26, 4, 0, 22, 8}},
      {"vbe5b", {8, 8, 16, 14, 14, 0, 0}, {10, 4, 4, 0, 0, 4, 4}},
      {"vbe6a", {10, 10, 18, 16, 16, 0, 0}, {14, 4, 4, 0, 0, 4, 4}},
  });
}

TEST(PaperTableGolden, Table2BoundedDelay) {
  check_table("Table 2", perf::CorpusEntry::Kind::BdBenchmark, {
      {"chu150", {14, 14, 20, 20, 20, 0, 0}, {44, 6, 22, 6, 0, 16, 6}},
      {"converta", {10, 10, 6, 6, 6, 0, 0}, {24, 4, 12, 0, 0, 12, 4}},
      {"ebergen", {12, 12, 8, 8, 8, 0, 0}, {36, 4, 12, 0, 0, 12, 4}},
      {"hazard", {22, 22, 26, 26, 24, 1, 1}, {724, 8, 56, 0, 0, 56, 8}},
      {"nowick", {10, 10, 6, 6, 6, 0, 0}, {24, 4, 12, 0, 0, 12, 4}},
      {"rpdft", {12, 12, 18, 18, 18, 0, 0}, {32, 6, 20, 4, 0, 16, 6}},
      {"trimos-send", {34, 0, 64, 0, 0, 0, 0}, {17352, 8, 7098, 7093, 0, 5, 1}},
      {"vbe10b", {32, 7, 54, 9, 9, 0, 0}, {6240, 8, 2373, 2354, 0, 19, 3}},
      {"vbe6a", {26, 0, 44, 0, 0, 0, 0}, {899, 5, 474, 472, 0, 2, 1}},
  });
}

}  // namespace
}  // namespace xatpg
