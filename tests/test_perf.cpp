// Perf-harness suite: corpus shape, record determinism, JSON round-trip,
// and the regression comparator the CI perf gate runs (xatpg bench-compare).
#include "perf/perf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "util/check.hpp"
#include "xatpg/progress.hpp"
#include "xatpg/session.hpp"

namespace xatpg::perf {
namespace {

CorpusEntry entry_by_id(const std::string& id) {
  for (CorpusEntry& entry : default_corpus())
    if (entry.id == id) return entry;
  ADD_FAILURE() << "corpus entry '" << id << "' not found";
  return {};
}

TEST(PerfCorpus, DefaultCorpusCoversAllFamilies) {
  const std::vector<CorpusEntry> corpus = default_corpus();
  std::set<std::string> ids;
  std::size_t si = 0, bd = 0, rand = 0, bench = 0;
  for (const CorpusEntry& entry : corpus) {
    EXPECT_TRUE(ids.insert(entry.id).second) << "duplicate id " << entry.id;
    switch (entry.kind) {
      case CorpusEntry::Kind::SiBenchmark: ++si; break;
      case CorpusEntry::Kind::BdBenchmark: ++bd; break;
      case CorpusEntry::Kind::RandomNetlist: ++rand; break;
      case CorpusEntry::Kind::BenchText: ++bench; break;
    }
  }
  // Full named corpus (both synthesis styles) + seeded families + .bench.
  EXPECT_EQ(si, 24u);
  EXPECT_EQ(bd, 9u);
  EXPECT_GE(rand, 4u);
  EXPECT_GE(bench, 3u);
}

TEST(PerfRun, RecordsAreDeterministicWhereTheGateLooks) {
  // Everything bench-compare gates on — coverage and node counts — must be
  // bit-identical across runs; only cpu_ms may differ.
  const CorpusEntry entry = entry_by_id("bench/parity5");
  const CircuitRecord a = run_entry(entry, AtpgOptions{});
  const CircuitRecord b = run_entry(entry, AtpgOptions{});
  EXPECT_EQ(a.faults_total, b.faults_total);
  EXPECT_EQ(a.faults_covered, b.faults_covered);
  EXPECT_EQ(a.sequences, b.sequences);
  EXPECT_EQ(a.peak_nodes, b.peak_nodes);
  EXPECT_EQ(a.live_nodes, b.live_nodes);
  EXPECT_EQ(a.post_sift_nodes, b.post_sift_nodes);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  // And the record is populated, not a pile of zeros.
  EXPECT_GT(a.faults_total, 0u);
  EXPECT_GT(a.faults_covered, 0u);
  EXPECT_GT(a.peak_nodes, 0u);
  EXPECT_GT(a.cache_lookups, a.cache_hits);
  EXPECT_GT(a.cache_hit_rate, 0.0);
  EXPECT_LE(a.post_sift_nodes, a.live_nodes);
  EXPECT_GT(a.cpu_ms, 0.0);
}

TEST(PerfRun, RandomFamilyEntryRunsThroughSessionFacade) {
  const CorpusEntry entry = entry_by_id("rand/s11");
  const CircuitRecord record = run_entry(entry, AtpgOptions{});
  EXPECT_GT(record.signals, entry.rand_inputs);
  EXPECT_GT(record.faults_total, 0u);
  EXPECT_GT(record.peak_nodes, 0u);
}

TEST(PerfRun, SessionFromBenchParsesAndRejects) {
  const CorpusEntry c17 = entry_by_id("bench/c17");
  const Expected<Session> ok = Session::from_bench(c17.text);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->num_inputs(), 5u);
  EXPECT_EQ(ok->num_outputs(), 2u);

  const Expected<Session> dff =
      Session::from_bench("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n");
  ASSERT_FALSE(dff.has_value());
  EXPECT_EQ(dff.error().code, ErrorCode::ParseError);
}

TEST(PerfJson, RoundTripPreservesEveryGatedField) {
  std::vector<CorpusEntry> corpus{entry_by_id("bench/parity5"),
                                  entry_by_id("bench/c17")};
  const BenchRecord record =
      run_corpus(corpus, AtpgOptions{}, "unit-\"host\"\n");
  const BenchRecord parsed = parse_record(to_json(record));
  EXPECT_EQ(parsed.schema, record.schema);
  EXPECT_EQ(parsed.kernel, record.kernel);
  EXPECT_EQ(parsed.host, record.host);  // escaping round-trips
  EXPECT_EQ(parsed.threads, record.threads);
  ASSERT_EQ(parsed.circuits.size(), record.circuits.size());
  for (std::size_t i = 0; i < parsed.circuits.size(); ++i) {
    const CircuitRecord& a = record.circuits[i];
    const CircuitRecord& b = parsed.circuits[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.faults_total, b.faults_total);
    EXPECT_EQ(a.faults_covered, b.faults_covered);
    EXPECT_EQ(a.peak_nodes, b.peak_nodes);
    EXPECT_EQ(a.live_nodes, b.live_nodes);
    EXPECT_EQ(a.post_sift_nodes, b.post_sift_nodes);
    EXPECT_EQ(a.cache_lookups, b.cache_lookups);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_NEAR(a.cpu_ms, b.cpu_ms, 1e-3);
    EXPECT_NEAR(a.coverage, b.coverage, 1e-9);
    // Schema 5: the paper's per-universe columns and the Figure 2 counts.
    EXPECT_EQ(a.output_stuck.total_faults + a.input_stuck.total_faults,
              a.faults_total);
    for (const auto& [x, y] : {std::pair{&a.output_stuck, &b.output_stuck},
                               std::pair{&a.input_stuck, &b.input_stuck}}) {
      EXPECT_EQ(x->total_faults, y->total_faults);
      EXPECT_EQ(x->covered, y->covered);
      EXPECT_EQ(x->by_random, y->by_random);
      EXPECT_EQ(x->by_three_phase, y->by_three_phase);
      EXPECT_EQ(x->by_fault_sim, y->by_fault_sim);
      EXPECT_EQ(x->undetected, y->undetected);
      EXPECT_EQ(x->proven_redundant, y->proven_redundant);
      EXPECT_EQ(x->gave_up, y->gave_up);
    }
    EXPECT_GT(a.cssg.cssg_edges, 0.0);
    EXPECT_EQ(a.cssg.reachable_states, b.cssg.reachable_states);
    EXPECT_EQ(a.cssg.stable_states, b.cssg.stable_states);
    EXPECT_EQ(a.cssg.tcr_pairs, b.cssg.tcr_pairs);
    EXPECT_EQ(a.cssg.nonconfluent_pairs, b.cssg.nonconfluent_pairs);
    EXPECT_EQ(a.cssg.unstable_pairs, b.cssg.unstable_pairs);
    EXPECT_EQ(a.cssg.cssg_edges, b.cssg.cssg_edges);
    EXPECT_EQ(a.cssg.cssg_reachable_states, b.cssg.cssg_reachable_states);
    EXPECT_EQ(a.cssg.peak_bdd_nodes, b.cssg.peak_bdd_nodes);
  }
}

TEST(PerfJson, ServeSectionRoundTripsAndDefaultsWhenAbsent) {
  BenchRecord record;
  record.host = "ci";
  record.serve.requests = 120;
  record.serve.circuits = 24;
  record.serve.workers = 2;
  record.serve.cold_rps = 3.25;
  record.serve.cold_p50_ms = 10.5;
  record.serve.cold_p99_ms = 3200.75;
  record.serve.cached_rps = 12000.5;
  record.serve.cached_p50_ms = 0.078;
  record.serve.cached_p99_ms = 0.141;
  const BenchRecord parsed = parse_record(to_json(record));
  EXPECT_EQ(parsed.serve.requests, record.serve.requests);
  EXPECT_EQ(parsed.serve.circuits, record.serve.circuits);
  EXPECT_EQ(parsed.serve.workers, record.serve.workers);
  EXPECT_NEAR(parsed.serve.cold_rps, record.serve.cold_rps, 1e-9);
  EXPECT_NEAR(parsed.serve.cold_p50_ms, record.serve.cold_p50_ms, 1e-9);
  EXPECT_NEAR(parsed.serve.cold_p99_ms, record.serve.cold_p99_ms, 1e-9);
  EXPECT_NEAR(parsed.serve.cached_rps, record.serve.cached_rps, 1e-9);
  EXPECT_NEAR(parsed.serve.cached_p50_ms, record.serve.cached_p50_ms, 1e-9);
  EXPECT_NEAR(parsed.serve.cached_p99_ms, record.serve.cached_p99_ms, 1e-9);

  // A record without a serve bench emits no "serve" key at all, and
  // pre-schema-4 records parse with the section defaulted to absent.
  BenchRecord plain;
  plain.host = "ci";
  EXPECT_EQ(to_json(plain).find("\"serve\""), std::string::npos);
  EXPECT_EQ(parse_record(to_json(plain)).serve.requests, 0u);
}

TEST(PerfRun, ServeBenchMeasuresColdThenCachedThroughTheDaemon) {
  // One tiny circuit, one repeat pass: 2 requests end to end through a real
  // in-process daemon.  run_serve_bench itself throws CheckError if the
  // cold request hits the cache or the repeat request misses it.
  const std::vector<CorpusEntry> corpus{entry_by_id("bench/c17")};
  const ServeRecord serve =
      run_serve_bench(corpus, AtpgOptions{}, /*cached_repeats=*/1);
  EXPECT_EQ(serve.requests, 2u);
  EXPECT_EQ(serve.circuits, 1u);
  EXPECT_GT(serve.cold_p50_ms, 0.0);
  EXPECT_GT(serve.cached_p50_ms, 0.0);
  EXPECT_GT(serve.cold_rps, 0.0);
  EXPECT_GT(serve.cached_rps, 0.0);
  // The cache hit does no engine work; even on a noisy host it must be far
  // faster than the cold run that built the result.
  EXPECT_LT(serve.cached_p50_ms, serve.cold_p50_ms);
}

TEST(PerfJson, MalformedRecordsThrowLoudly) {
  EXPECT_THROW(parse_record(""), CheckError);
  EXPECT_THROW(parse_record("[]"), CheckError);
  EXPECT_THROW(parse_record("{\"schema\": 1}"), CheckError);  // no circuits
  EXPECT_THROW(parse_record("{\"circuits\": []}"), CheckError);  // no schema
  EXPECT_THROW(parse_record("{\"schema\": 1, \"circuits\": [{}]}"),
               CheckError);  // circuit without id
  EXPECT_THROW(parse_record("{\"schema\": 1, \"circuits\": [1]}"), CheckError);
  EXPECT_THROW(parse_record("{bad json"), CheckError);
  EXPECT_THROW(parse_record("{\"schema\": 1, \"circuits\": []} trailing"),
               CheckError);
  EXPECT_THROW(parse_record("{\"schema\": 5, \"circuits\": [{\"id\": \"x\","
                            " \"input_stuck\": 3}]}"),
               CheckError);  // a universe that is not an object
  EXPECT_THROW(parse_record("{\"schema\": 5, \"circuits\": [{\"id\": \"x\","
                            " \"cssg\": []}]}"),
               CheckError);
}

// --- comparator ---------------------------------------------------------------

BenchRecord tiny_record() {
  BenchRecord record;
  record.host = "ci";
  record.threads = 1;
  CircuitRecord a;
  a.id = "si/alpha";
  a.faults_total = 20;
  a.faults_covered = 18;
  a.peak_nodes = 1000;
  a.cpu_ms = 100;
  CircuitRecord b;
  b.id = "bd/beta";
  b.faults_total = 30;
  b.faults_covered = 30;
  b.peak_nodes = 4000;
  b.cpu_ms = 10;  // below the per-circuit CPU floor
  record.circuits = {a, b};
  return record;
}

TEST(PerfCompare, IdenticalRecordsPass) {
  const BenchRecord record = tiny_record();
  const Comparison comparison = compare(record, record);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(comparison.failures.empty());
}

TEST(PerfCompare, CoverageDropFails) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  current.circuits[0].faults_covered = 17;
  const Comparison comparison = compare(baseline, current);
  EXPECT_FALSE(comparison.ok);
  ASSERT_EQ(comparison.failures.size(), 1u);
  EXPECT_NE(comparison.failures[0].find("coverage dropped"),
            std::string::npos);
}

TEST(PerfCompare, CoverageGainIsANote) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  current.circuits[0].faults_covered = 20;
  const Comparison comparison = compare(baseline, current);
  EXPECT_TRUE(comparison.ok);
  EXPECT_FALSE(comparison.notes.empty());
}

TEST(PerfCompare, NodeRegressionBeyondBoundFails) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  current.circuits[0].peak_nodes = 1251;  // > 1000 * 1.25
  EXPECT_FALSE(compare(baseline, current).ok);
  current.circuits[0].peak_nodes = 1250;  // exactly at the bound: passes
  EXPECT_TRUE(compare(baseline, current).ok);
}

TEST(PerfCompare, CpuGatesOnlyFireOnMatchingHostTags) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  current.circuits[0].cpu_ms = 1000;  // 10x the baseline, above the floor
  EXPECT_FALSE(compare(baseline, current).ok);

  // Different host tag: CPU is not comparable; nodes/coverage still gate.
  current.host = "laptop";
  const Comparison skipped = compare(baseline, current);
  EXPECT_TRUE(skipped.ok);
  EXPECT_TRUE(std::any_of(
      skipped.notes.begin(), skipped.notes.end(), [](const std::string& n) {
        return n.find("CPU gates skipped") != std::string::npos;
      }));

  // Sub-floor circuits never CPU-gate even on the same host.
  BenchRecord slow_small = baseline;
  slow_small.circuits[1].cpu_ms = 24;  // 2.4x but baseline is 10 ms < floor
  EXPECT_TRUE(compare(baseline, slow_small).ok);
}

TEST(PerfCompare, MissingCircuitAndChangedUniverseFail) {
  const BenchRecord baseline = tiny_record();
  BenchRecord missing = baseline;
  missing.circuits.pop_back();
  EXPECT_FALSE(compare(baseline, missing).ok);

  BenchRecord changed = baseline;
  changed.circuits[0].faults_total = 22;
  const Comparison comparison = compare(baseline, changed);
  EXPECT_FALSE(comparison.ok);
  EXPECT_NE(comparison.failures[0].find("fault universe changed"),
            std::string::npos);
}

TEST(PerfCompare, NewCircuitsAreNotesNotFailures) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  CircuitRecord extra;
  extra.id = "bench/extra";
  extra.faults_total = 4;
  extra.faults_covered = 4;
  extra.peak_nodes = 10;
  current.circuits.push_back(extra);
  const Comparison comparison = compare(baseline, current);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(std::any_of(
      comparison.notes.begin(), comparison.notes.end(),
      [](const std::string& n) {
        return n.find("bench/extra") != std::string::npos;
      }));
}

TEST(PerfCompare, TotalCpuGateCatchesDeathByAThousandCuts) {
  // Every circuit individually under the per-circuit radar (below floor or
  // under the bound), but the corpus total blows the budget.
  BenchRecord baseline = tiny_record();
  baseline.circuits[0].cpu_ms = 100;
  baseline.circuits[1].cpu_ms = 100;
  BenchRecord current = baseline;
  current.circuits[0].cpu_ms = 124;  // under 25% individually
  current.circuits[1].cpu_ms = 130;  // over, but paired with the other...
  const Comparison comparison = compare(baseline, current);
  // 254 vs 200 total = +27% > 25%: the total gate fires even though the
  // second circuit alone would also have fired — assert the total message
  // exists so the aggregate path is covered.
  EXPECT_FALSE(comparison.ok);
  EXPECT_TRUE(std::any_of(
      comparison.failures.begin(), comparison.failures.end(),
      [](const std::string& f) {
        return f.find("total CPU regressed") != std::string::npos;
      }));
}

// --- schema 2: gave_up, host_cores, threads sweep ----------------------------

TEST(PerfJson, Schema2FieldsRoundTrip) {
  BenchRecord record = tiny_record();
  record.host_cores = 8;
  record.circuits[0].gave_up = 3;
  record.sweep = {{1, 400.0, 1.0, 1.0}, {4, 110.0, 3.6, 0.9}};
  const BenchRecord parsed = parse_record(to_json(record));
  EXPECT_EQ(parsed.host_cores, 8u);
  EXPECT_EQ(parsed.circuits[0].gave_up, 3u);
  EXPECT_EQ(parsed.total_gave_up(), 3u);
  ASSERT_EQ(parsed.sweep.size(), 2u);
  EXPECT_EQ(parsed.sweep[1].threads, 4u);
  EXPECT_NEAR(parsed.sweep[1].cpu_ms, 110.0, 1e-3);
  EXPECT_NEAR(parsed.sweep[1].speedup, 3.6, 1e-6);
  EXPECT_NEAR(parsed.sweep[1].efficiency, 0.9, 1e-6);
}

TEST(PerfJson, Schema1RecordsParseWithDefaults) {
  // A record written before schema 2 has no host_cores / gave_up / sweep;
  // the parser must default them instead of rejecting the baseline file.
  const std::string old_record =
      "{\"schema\": 1, \"kernel\": \"complement-edge\", \"host\": \"ci\",\n"
      " \"threads\": 1,\n"
      " \"circuits\": [{\"id\": \"si/alpha\", \"faults_total\": 5,\n"
      "                \"faults_covered\": 5, \"peak_nodes\": 10}]}";
  const BenchRecord parsed = parse_record(old_record);
  EXPECT_EQ(parsed.schema, 1);
  EXPECT_EQ(parsed.host_cores, 0u);
  EXPECT_TRUE(parsed.sweep.empty());
  ASSERT_EQ(parsed.circuits.size(), 1u);
  EXPECT_EQ(parsed.circuits[0].gave_up, 0u);
}

TEST(PerfCompare, GaveUpChangesAreNotesNotFailures) {
  const BenchRecord baseline = tiny_record();
  BenchRecord current = baseline;
  current.circuits[0].gave_up = 4;  // caps newly truncating searches
  const Comparison comparison = compare(baseline, current);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(std::any_of(
      comparison.notes.begin(), comparison.notes.end(),
      [](const std::string& n) {
        return n.find("gave_up rose") != std::string::npos;
      }));
}

BenchRecord sweep_record(std::size_t host_cores) {
  BenchRecord record = tiny_record();
  record.host_cores = host_cores;
  record.sweep = {{1, 400.0, 1.0, 1.0},
                  {2, 210.0, 1.9, 0.95},
                  {4, 100.0, 4.0, 1.0}};
  return record;
}

TEST(PerfCompare, SpeedupRegressionBeyondBoundFails) {
  const BenchRecord baseline = sweep_record(/*host_cores=*/4);
  BenchRecord current = baseline;
  current.sweep[2].speedup = 2.9;  // < 4.0 * (1 - 0.25)
  const Comparison comparison = compare(baseline, current);
  EXPECT_FALSE(comparison.ok);
  EXPECT_TRUE(std::any_of(
      comparison.failures.begin(), comparison.failures.end(),
      [](const std::string& f) {
        return f.find("scaling at threads=4") != std::string::npos;
      }));
  // Exactly at the bound: passes (same convention as the node gate).
  current.sweep[2].speedup = 3.0;
  EXPECT_TRUE(compare(baseline, current).ok);
}

TEST(PerfCompare, ScalingGatesSkipAcrossHostClasses) {
  const auto skipped_note = [](const Comparison& c) {
    return std::any_of(c.notes.begin(), c.notes.end(),
                       [](const std::string& n) {
                         return n.find("scaling gates skipped") !=
                                std::string::npos;
                       });
  };
  // Same tag, different core counts: curves are not comparable.
  const BenchRecord base4 = sweep_record(4);
  BenchRecord cur8 = sweep_record(8);
  cur8.sweep[2].speedup = 1.0;  // would fail if gated
  Comparison comparison = compare(base4, cur8);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(skipped_note(comparison));

  // Single-core host: no parallelism signal, never gates.
  const BenchRecord base1 = sweep_record(1);
  BenchRecord cur1 = sweep_record(1);
  cur1.sweep[2].speedup = 0.5;
  comparison = compare(base1, cur1);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(skipped_note(comparison));

  // Different host tag: skipped like the CPU gates.
  BenchRecord other_host = sweep_record(4);
  other_host.host = "laptop";
  other_host.sweep[2].speedup = 0.5;
  comparison = compare(base4, other_host);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(skipped_note(comparison));
}

TEST(PerfRun, ReordersCountSurvivesIntoTheRecord) {
  // Regression lock for the wiring bug where `reorders` was read from shard
  // 0 *before* the explicit sift pass and stayed 0 forever: with sifting
  // armed, the recorded count must be nonzero (the explicit post-run sift
  // alone performs at least one pass).
  const CorpusEntry entry = entry_by_id("bench/parity5");
  AtpgOptions options;
  options.reorder.enabled = true;
  options.reorder.trigger_nodes = 64;  // small enough to trip mid-run
  const CircuitRecord record = run_entry(entry, options);
  EXPECT_GT(record.reorders, 0u);
}

TEST(PerfSweep, RecordsCurveAndCrossChecksDeterminism) {
  const std::vector<CorpusEntry> corpus{entry_by_id("bench/c17")};
  AtpgOptions options;
  const BenchRecord record = run_sweep(corpus, options, "unit", {1, 2});
  EXPECT_GT(record.host_cores, 0u);
  ASSERT_EQ(record.circuits.size(), 1u);
  ASSERT_EQ(record.sweep.size(), 2u);
  EXPECT_EQ(record.sweep[0].threads, 1u);
  EXPECT_EQ(record.sweep[1].threads, 2u);
  EXPECT_NEAR(record.sweep[0].speedup, 1.0, 1e-9);
  EXPECT_NEAR(record.sweep[0].efficiency, 1.0, 1e-9);
  EXPECT_GT(record.sweep[1].speedup, 0.0);
  EXPECT_NEAR(record.sweep[1].efficiency, record.sweep[1].speedup / 2.0,
              1e-9);
  // The record's circuits come from the threads=1 point.
  EXPECT_EQ(record.threads, 1u);
}

TEST(PerfJson, Schema3FieldsRoundTrip) {
  BenchRecord record = tiny_record();
  record.circuits[0].base_nodes = 5000;
  record.circuits[0].delta_peak = 700;
  record.circuits[0].peak_resident_nodes = 7100;  // base + 3 shards' deltas
  record.sweep = {{1, 400.0, 1.0, 1.0, 5700},
                  {4, 100.0, 4.0, 1.0, 7100}};
  const BenchRecord parsed = parse_record(to_json(record));
  EXPECT_EQ(parsed.schema, kSchemaVersion);
  ASSERT_EQ(parsed.circuits.size(), 2u);
  EXPECT_EQ(parsed.circuits[0].base_nodes, 5000u);
  EXPECT_EQ(parsed.circuits[0].delta_peak, 700u);
  EXPECT_EQ(parsed.circuits[0].peak_resident_nodes, 7100u);
  EXPECT_EQ(parsed.circuits[1].base_nodes, 0u);  // defaults survive
  ASSERT_EQ(parsed.sweep.size(), 2u);
  EXPECT_EQ(parsed.sweep[0].peak_resident_nodes, 5700u);
  EXPECT_EQ(parsed.sweep[1].peak_resident_nodes, 7100u);
  // Schema-1/2 records (no such keys) parse with zeroed defaults.
  const BenchRecord old = parse_record(
      "{\"schema\": 2, \"circuits\": [{\"id\": \"x\"}],"
      " \"sweep\": [{\"threads\": 4, \"cpu_ms\": 10}]}");
  EXPECT_EQ(old.circuits[0].peak_resident_nodes, 0u);
  EXPECT_EQ(old.sweep[0].peak_resident_nodes, 0u);
  // bench/baseline.json is a schema-3 record (a schema-4 one differs only
  // by the optional serve object): it parses with the schema-5 universe
  // and cssg objects zeroed.
  const BenchRecord baseline = parse_record(
      "{\"schema\": 3, \"circuits\": [{\"id\": \"si/dff\", \"faults_total\":"
      " 10, \"faults_covered\": 10, \"peak_nodes\": 55,"
      " \"base_nodes\": 55}]}");
  EXPECT_EQ(baseline.circuits[0].base_nodes, 55u);
  EXPECT_EQ(baseline.circuits[0].output_stuck.total_faults, 0u);
  EXPECT_EQ(baseline.circuits[0].input_stuck.covered, 0u);
  EXPECT_EQ(baseline.circuits[0].cssg.stable_states, 0.0);
  EXPECT_EQ(baseline.circuits[0].cssg.cssg_edges, 0.0);
}

TEST(PerfJson, DoublesRoundTripBitExactly) {
  // max_digits10 formatting: parse(emit(x)) == x, not merely "close".
  BenchRecord record = tiny_record();
  record.circuits[0].coverage = 1.0 / 3.0;
  record.circuits[0].cpu_ms = 0.1 + 0.2;  // 0.30000000000000004
  record.circuits[0].cache_hit_rate = 0.7234567890123456;
  record.circuits[0].unique_load = 1e-17;
  record.sweep = {{1, 400.125, 1.0, 1.0, 10},
                  {2, 201.0, 1.9900497512437811, 0.99502487562189056, 12}};
  const BenchRecord parsed = parse_record(to_json(record));
  EXPECT_EQ(parsed.circuits[0].coverage, record.circuits[0].coverage);
  EXPECT_EQ(parsed.circuits[0].cpu_ms, record.circuits[0].cpu_ms);
  EXPECT_EQ(parsed.circuits[0].cache_hit_rate,
            record.circuits[0].cache_hit_rate);
  EXPECT_EQ(parsed.circuits[0].unique_load, record.circuits[0].unique_load);
  ASSERT_EQ(parsed.sweep.size(), 2u);
  EXPECT_EQ(parsed.sweep[1].speedup, record.sweep[1].speedup);
  EXPECT_EQ(parsed.sweep[1].efficiency, record.sweep[1].efficiency);
  // And the emitted text is a fixed point: emit(parse(emit(x))) == emit(x).
  EXPECT_EQ(to_json(parsed), to_json(record));
}

TEST(PerfJson, NonFiniteDoublesClampToValidJson) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(json_double(kNan), "0");
  EXPECT_EQ(json_double(kInf), "0");
  EXPECT_EQ(json_double(-kInf), "0");
  EXPECT_EQ(json_double(0.25), "0.25");

  // A poisoned record must still emit parseable JSON (operator<< would have
  // written the invalid tokens `nan` / `inf`).
  BenchRecord record = tiny_record();
  record.circuits[0].cache_hit_rate = kNan;
  record.circuits[0].coverage = kInf;
  record.sweep = {{1, 400.0, kInf, kNan, 10}};
  const std::string text = to_json(record);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
  const BenchRecord parsed = parse_record(text);
  EXPECT_EQ(parsed.circuits[0].cache_hit_rate, 0.0);
  EXPECT_EQ(parsed.circuits[0].coverage, 0.0);
  EXPECT_EQ(parsed.sweep[0].speedup, 0.0);
  EXPECT_EQ(parsed.sweep[0].efficiency, 0.0);
}

TEST(PerfGuards, SafeRatioGuardsZeroDenominators) {
  EXPECT_EQ(safe_ratio(1.0, 0.0), 0.0);
  EXPECT_EQ(safe_ratio(0.0, 0.0), 0.0);
  EXPECT_EQ(safe_ratio(-3.0, 0.0), 0.0);
  EXPECT_EQ(safe_ratio(3.0, 4.0), 0.75);
  // Non-finite quotients clamp even with a nonzero denominator.
  EXPECT_EQ(safe_ratio(std::numeric_limits<double>::infinity(), 2.0), 0.0);
  EXPECT_EQ(safe_ratio(std::numeric_limits<double>::quiet_NaN(), 2.0), 0.0);
}

TEST(PerfGuards, CacheHitRateGuardsZeroLookups) {
  ShardBddStats stats;  // a shard that never issued a cache lookup
  EXPECT_EQ(stats.cache_lookups, 0u);
  EXPECT_EQ(stats.cache_hit_rate(), 0.0);
  stats.cache_lookups = 8;
  stats.cache_hits = 2;
  EXPECT_EQ(stats.cache_hit_rate(), 0.25);
}

TEST(PerfCompare, MemoryGateLocksInTheResidentWin) {
  // The gate is self-contained within the current record's sweep: resident
  // peak at T >= 4 threads must stay under 0.6 x T x the threads=1 point.
  BenchRecord current = sweep_record(/*host_cores=*/8);
  current.sweep[0].peak_resident_nodes = 1000;  // threads=1 footprint
  current.sweep[1].peak_resident_nodes = 1100;  // threads=2: below the gate
  current.sweep[2].peak_resident_nodes = 2400;  // threads=4: == 0.6 * 4 * 1000
  const BenchRecord baseline = current;
  EXPECT_TRUE(compare(baseline, current).ok) << "exactly at the bound passes";

  current.sweep[2].peak_resident_nodes = 2401;  // one node over the bound
  const Comparison over = compare(baseline, current);
  EXPECT_FALSE(over.ok);
  EXPECT_TRUE(std::any_of(over.failures.begin(), over.failures.end(),
                          [](const std::string& f) {
                            return f.find("memory at threads=4") !=
                                   std::string::npos;
                          }));
}

TEST(PerfCompare, MemoryGateSkipsPreSchema3Sweeps) {
  // sweep_record() leaves peak_resident_nodes zeroed, like a parsed
  // schema-2 record: the gate must skip with a note, never fail.
  const BenchRecord record = sweep_record(/*host_cores=*/4);
  const Comparison comparison = compare(record, record);
  EXPECT_TRUE(comparison.ok);
  EXPECT_TRUE(std::any_of(
      comparison.notes.begin(), comparison.notes.end(),
      [](const std::string& n) {
        return n.find("memory gates skipped") != std::string::npos;
      }));
}

TEST(PerfRun, Schema3MemoryFieldsArePopulatedAndComposed) {
  const CorpusEntry entry = entry_by_id("bench/c17");
  const CircuitRecord record = run_entry(entry, AtpgOptions{});
  EXPECT_GT(record.base_nodes, 0u)
      << "the frozen shared arena holds the encoding + CSSG substrate";
  EXPECT_EQ(record.peak_nodes, record.base_nodes + record.delta_peak)
      << "shard 0's resident watermark = base + its delta peak";
  EXPECT_GE(record.peak_resident_nodes, record.peak_nodes)
      << "corpus resident = base once + every shard's delta peak";
  EXPECT_GE(record.live_nodes, record.base_nodes)
      << "base nodes are permanently live";
}

}  // namespace
}  // namespace xatpg::perf
