#include "perf/perf.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "benchmarks/benchmarks.hpp"
#include "netlist/netlist.hpp"
#include "netlist/random_netlist.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"
#include "xatpg/progress.hpp"  // safe_ratio
#include "xatpg/session.hpp"

namespace xatpg::perf {

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

namespace {

// Embedded ISCAS-style workloads.  c17 is the classic NAND mesh; the parity
// tree is the complement-edge showcase shape (every subfunction and its
// negation share nodes); the mux covers AND/OR decode logic with inverted
// selects.
constexpr const char* kC17Bench = R"(# ISCAS-85 c17 (NAND-only mesh)
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
)";

constexpr const char* kParity5Bench = R"(# 5-input XOR parity tree
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(p)
x1 = XOR(a, b)
x2 = XOR(c, d)
x3 = XOR(x1, x2)
p = XOR(x3, e)
)";

constexpr const char* kMux4Bench = R"(# 4:1 multiplexer with decoded selects
INPUT(s0)
INPUT(s1)
INPUT(d0)
INPUT(d1)
INPUT(d2)
INPUT(d3)
OUTPUT(y)
n0 = NOT(s0)
n1 = NOT(s1)
t0 = AND(d0, n0, n1)
t1 = AND(d1, s0, n1)
t2 = AND(d2, n0, s1)
t3 = AND(d3, s0, s1)
o1 = OR(t0, t1)
o2 = OR(t2, t3)
y = OR(o1, o2)
)";

struct RandomFamilyMember {
  std::uint64_t seed;
  std::size_t inputs, gates;
};

// Two shapes x several seeds: the default fixture shape and a wider/deeper
// one.  Deterministic across platforms (the generator draws only from Rng);
// seeds chosen so each member stays around a second even unoptimized — the
// corpus is a CI gate, not a soak test.
constexpr RandomFamilyMember kRandomFamily[] = {
    {11, 3, 8}, {12, 3, 8}, {13, 3, 8}, {24, 4, 10}, {25, 4, 10},
};

}  // namespace

std::vector<CorpusEntry> default_corpus() {
  std::vector<CorpusEntry> corpus;
  for (const std::string& name : si_benchmark_names()) {
    CorpusEntry entry;
    entry.kind = CorpusEntry::Kind::SiBenchmark;
    entry.id = "si/" + name;
    entry.name = name;
    corpus.push_back(std::move(entry));
  }
  for (const std::string& name : bd_benchmark_names()) {
    CorpusEntry entry;
    entry.kind = CorpusEntry::Kind::BdBenchmark;
    entry.id = "bd/" + name;
    entry.name = name;
    corpus.push_back(std::move(entry));
  }
  for (const RandomFamilyMember& member : kRandomFamily) {
    CorpusEntry entry;
    entry.kind = CorpusEntry::Kind::RandomNetlist;
    entry.id = "rand/s" + std::to_string(member.seed);
    entry.name = "random" + std::to_string(member.seed);
    entry.seed = member.seed;
    entry.rand_inputs = member.inputs;
    entry.rand_gates = member.gates;
    corpus.push_back(std::move(entry));
  }
  const std::pair<const char*, const char*> bench_texts[] = {
      {"c17", kC17Bench}, {"parity5", kParity5Bench}, {"mux4", kMux4Bench}};
  for (const auto& [name, text] : bench_texts) {
    CorpusEntry entry;
    entry.kind = CorpusEntry::Kind::BenchText;
    entry.id = std::string("bench/") + name;
    entry.name = name;
    entry.text = text;
    corpus.push_back(std::move(entry));
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------------

std::size_t BenchRecord::total_faults() const {
  std::size_t n = 0;
  for (const CircuitRecord& c : circuits) n += c.faults_total;
  return n;
}
std::size_t BenchRecord::total_covered() const {
  std::size_t n = 0;
  for (const CircuitRecord& c : circuits) n += c.faults_covered;
  return n;
}
std::size_t BenchRecord::total_gave_up() const {
  std::size_t n = 0;
  for (const CircuitRecord& c : circuits) n += c.gave_up;
  return n;
}
std::size_t BenchRecord::total_peak_nodes() const {
  std::size_t n = 0;
  for (const CircuitRecord& c : circuits) n += c.peak_nodes;
  return n;
}
double BenchRecord::total_cpu_ms() const {
  double n = 0;
  for (const CircuitRecord& c : circuits) n += c.cpu_ms;
  return n;
}

CircuitRecord run_entry(const CorpusEntry& entry, const AtpgOptions& options) {
  // The timed window starts before Session construction: synthesis and the
  // CSSG build are part of the table's time column.
  Timer timer;
  Expected<Session> session = [&]() -> Expected<Session> {
    switch (entry.kind) {
      case CorpusEntry::Kind::SiBenchmark:
        return Session::from_benchmark(entry.name,
                                       SynthStyle::SpeedIndependent, options);
      case CorpusEntry::Kind::BdBenchmark:
        return Session::from_benchmark(entry.name, SynthStyle::BoundedDelay,
                                       options);
      case CorpusEntry::Kind::RandomNetlist: {
        RandomNetlistOptions shape;
        shape.num_inputs = entry.rand_inputs;
        shape.num_gates = entry.rand_gates;
        return Session::from_xnl(
            write_xnl_string(random_netlist(entry.seed, shape)), options);
      }
      case CorpusEntry::Kind::BenchText:
        return Session::from_bench(entry.text, options);
    }
    return Error{ErrorCode::OptionError, "unknown corpus entry kind"};
  }();
  XATPG_CHECK_MSG(session.has_value(), "corpus entry '"
                                           << entry.id << "' failed to build: "
                                           << session.error().to_string());

  const Expected<AtpgResult> out_result =
      session->run(session->output_stuck_faults());
  XATPG_CHECK_MSG(out_result.has_value(),
                  "corpus entry '" << entry.id << "' output-stuck run failed: "
                                   << out_result.error().to_string());
  const Expected<AtpgResult> in_result =
      session->run(session->input_stuck_faults());
  XATPG_CHECK_MSG(in_result.has_value(),
                  "corpus entry '" << entry.id << "' input-stuck run failed: "
                                   << in_result.error().to_string());

  CircuitRecord record;
  record.id = entry.id;
  record.signals = session->num_signals();
  record.pins = session->num_pins();
  record.faults_total =
      out_result->stats.total_faults + in_result->stats.total_faults;
  record.faults_covered =
      out_result->stats.covered + in_result->stats.covered;
  record.coverage = record.faults_total == 0
                        ? 0.0
                        : static_cast<double>(record.faults_covered) /
                              static_cast<double>(record.faults_total);
  record.gave_up = out_result->stats.gave_up + in_result->stats.gave_up;
  record.sequences = in_result->sequences.size();
  record.cpu_ms = timer.millis();
  record.output_stuck = out_result->stats;
  record.input_stuck = in_result->stats;
  record.cssg = session->cssg_stats();

  const ShardBddStats bdd = session->bdd_stats();
  record.peak_nodes = bdd.peak_nodes;
  record.live_nodes = bdd.live_nodes;
  record.base_nodes = bdd.base_nodes;
  record.delta_peak = bdd.delta_peak;
  record.cache_lookups = bdd.cache_lookups;
  record.cache_hits = bdd.cache_hits;
  record.cache_hit_rate = bdd.cache_hit_rate();
  record.unique_load = bdd.unique_load;
  record.post_sift_nodes = session->sift_now();
  // Count sifting passes LAST and across EVERY shard: the explicit pass
  // behind post_sift_nodes is a real reorder the record used to miss, and
  // on a multi-threaded run the worker shards sift independently of shard 0
  // (reading bdd_stats() alone reported 0 forever — the schema-1 records'
  // all-zero reorders column).  The resident footprint likewise spans every
  // shard — but counts the shared base arena exactly ONCE: per-shard
  // base_nodes are the same frozen arena, and summing them per shard is the
  // N x double count schema 3 exists to fix.
  record.peak_resident_nodes = record.base_nodes;
  for (const ShardBddStats& shard : session->shard_bdd_stats()) {
    record.reorders += shard.reorders;
    record.peak_resident_nodes += shard.delta_peak;
  }
  return record;
}

namespace {

std::size_t detect_host_cores() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

}  // namespace

BenchRecord run_corpus(const std::vector<CorpusEntry>& corpus,
                       const AtpgOptions& options, const std::string& host_tag,
                       std::ostream* progress) {
  BenchRecord record;
  record.host = host_tag;
  record.threads = options.threads;
  record.host_cores = detect_host_cores();
  record.circuits.reserve(corpus.size());
  for (const CorpusEntry& entry : corpus) {
    record.circuits.push_back(run_entry(entry, options));
    if (progress != nullptr) {
      const CircuitRecord& c = record.circuits.back();
      *progress << "[bench] " << c.id << ": " << c.faults_covered << "/"
                << c.faults_total << " covered";
      if (c.gave_up > 0) *progress << " (" << c.gave_up << " gave up)";
      *progress << ", peak " << c.peak_nodes << " nodes (post-sift "
                << c.post_sift_nodes << "), " << c.cpu_ms << " ms\n";
    }
  }
  return record;
}

BenchRecord run_sweep(const std::vector<CorpusEntry>& corpus,
                      const AtpgOptions& options, const std::string& host_tag,
                      const std::vector<std::size_t>& thread_counts,
                      std::ostream* progress) {
  XATPG_CHECK_MSG(!thread_counts.empty(),
                  "threads sweep needs at least one thread count");
  BenchRecord record;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    AtpgOptions point_options = options;
    point_options.threads = thread_counts[i];
    if (progress != nullptr)
      *progress << "[bench] --- threads = " << thread_counts[i] << " ---\n";
    BenchRecord point = run_corpus(corpus, point_options, host_tag, progress);
    SweepPoint measured;
    measured.threads = thread_counts[i];
    measured.cpu_ms = point.total_cpu_ms();
    for (const CircuitRecord& c : point.circuits)
      measured.peak_resident_nodes += c.peak_resident_nodes;
    if (i == 0) {
      // The first point (canonically threads = 1) supplies the record's
      // per-circuit data; later points contribute timing only.
      record = std::move(point);
    } else {
      // Scheduler byte-identity cross-check: every sweep point must cover
      // the exact same faults per circuit, whatever the thread count and
      // steal interleaving.
      XATPG_CHECK_MSG(point.circuits.size() == record.circuits.size(),
                      "threads sweep produced a different corpus size");
      for (std::size_t c = 0; c < point.circuits.size(); ++c) {
        const CircuitRecord& base = record.circuits[c];
        const CircuitRecord& cur = point.circuits[c];
        XATPG_CHECK_MSG(
            cur.id == base.id && cur.faults_total == base.faults_total &&
                cur.faults_covered == base.faults_covered &&
                cur.gave_up == base.gave_up && cur.sequences == base.sequences,
            "threads sweep: '" << base.id << "' diverged at threads = "
                               << thread_counts[i]
                               << " — the scheduler broke determinism");
      }
    }
    record.sweep.push_back(measured);
  }
  // speedup/efficiency relative to the sweep's own first point (canonically
  // threads = 1) — through the uniform zero-denominator guard, so a 0 ms
  // corpus or a degenerate thread count yields 0, never NaN/inf.
  const double base_ms = record.sweep.front().cpu_ms;
  for (SweepPoint& point : record.sweep) {
    point.speedup = safe_ratio(base_ms, point.cpu_ms);
    point.efficiency =
        safe_ratio(point.speedup, static_cast<double>(point.threads));
  }
  if (progress != nullptr) {
    *progress << "[bench] threads-sweep (host_cores = " << record.host_cores
              << "):\n";
    for (const SweepPoint& point : record.sweep)
      *progress << "[bench]   threads " << point.threads << ": "
                << point.cpu_ms << " ms, speedup " << point.speedup
                << "x, efficiency " << point.efficiency << ", peak resident "
                << point.peak_resident_nodes << " nodes\n";
  }
  return record;
}

// ---------------------------------------------------------------------------
// JSON writing
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) { return json::escape(s); }

std::string json_double(double value) { return json::number(value); }

void write_universe_json(std::ostream& out, const AtpgStats& stats) {
  out << "{\"total\": " << stats.total_faults
      << ", \"covered\": " << stats.covered << ", \"rnd\": " << stats.by_random
      << ", \"three_phase\": " << stats.by_three_phase
      << ", \"sim\": " << stats.by_fault_sim
      << ", \"undetected\": " << stats.undetected
      << ", \"proven_redundant\": " << stats.proven_redundant
      << ", \"gave_up\": " << stats.gave_up
      << ", \"coverage\": " << json_double(stats.coverage()) << "}";
}

void write_cssg_fields(std::ostream& out, const CssgStats& stats,
                       const char* separator) {
  out << "\"reachable_states\": " << json_double(stats.reachable_states)
      << separator
      << "\"stable_states\": " << json_double(stats.stable_states) << separator
      << "\"tcr_pairs\": " << json_double(stats.tcr_pairs) << separator
      << "\"nonconfluent_pairs\": " << json_double(stats.nonconfluent_pairs)
      << separator
      << "\"unstable_pairs\": " << json_double(stats.unstable_pairs)
      << separator << "\"cssg_edges\": " << json_double(stats.cssg_edges)
      << separator << "\"cssg_reachable_states\": "
      << json_double(stats.cssg_reachable_states) << separator
      << "\"peak_bdd_nodes\": " << stats.peak_bdd_nodes;
}

void write_json(const BenchRecord& record, std::ostream& out) {
  out << "{\n"
      << "  \"schema\": " << record.schema << ",\n"
      << "  \"kernel\": \"" << json_escape(record.kernel) << "\",\n"
      << "  \"host\": \"" << json_escape(record.host) << "\",\n"
      << "  \"threads\": " << record.threads << ",\n"
      << "  \"host_cores\": " << record.host_cores << ",\n"
      << "  \"circuits\": [\n";
  for (std::size_t i = 0; i < record.circuits.size(); ++i) {
    const CircuitRecord& c = record.circuits[i];
    out << "    {\"id\": \"" << json_escape(c.id) << "\""
        << ", \"signals\": " << c.signals << ", \"pins\": " << c.pins
        << ", \"faults_total\": " << c.faults_total
        << ", \"faults_covered\": " << c.faults_covered
        << ", \"coverage\": " << json_double(c.coverage)
        << ", \"gave_up\": " << c.gave_up
        << ", \"sequences\": " << c.sequences
        << ", \"cpu_ms\": " << json_double(c.cpu_ms)
        << ", \"peak_nodes\": " << c.peak_nodes
        << ", \"live_nodes\": " << c.live_nodes
        << ", \"base_nodes\": " << c.base_nodes
        << ", \"delta_peak\": " << c.delta_peak
        << ", \"peak_resident_nodes\": " << c.peak_resident_nodes
        << ", \"post_sift_nodes\": " << c.post_sift_nodes
        << ", \"reorders\": " << c.reorders
        << ", \"cache_lookups\": " << c.cache_lookups
        << ", \"cache_hits\": " << c.cache_hits
        << ", \"cache_hit_rate\": " << json_double(c.cache_hit_rate)
        << ", \"unique_load\": " << json_double(c.unique_load)
        << ", \"output_stuck\": ";
    write_universe_json(out, c.output_stuck);
    out << ", \"input_stuck\": ";
    write_universe_json(out, c.input_stuck);
    out << ", \"cssg\": {";
    write_cssg_fields(out, c.cssg, ", ");
    out << "}}" << (i + 1 < record.circuits.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  if (!record.sweep.empty()) {
    out << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < record.sweep.size(); ++i) {
      const SweepPoint& p = record.sweep[i];
      out << "    {\"threads\": " << p.threads
          << ", \"cpu_ms\": " << json_double(p.cpu_ms)
          << ", \"speedup\": " << json_double(p.speedup)
          << ", \"efficiency\": " << json_double(p.efficiency)
          << ", \"peak_resident_nodes\": " << p.peak_resident_nodes << "}"
          << (i + 1 < record.sweep.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
  }
  if (record.serve.requests > 0) {
    const ServeRecord& s = record.serve;
    out << "  \"serve\": {\"requests\": " << s.requests
        << ", \"circuits\": " << s.circuits << ", \"workers\": " << s.workers
        << ", \"cold_rps\": " << json_double(s.cold_rps)
        << ", \"cold_p50_ms\": " << json_double(s.cold_p50_ms)
        << ", \"cold_p99_ms\": " << json_double(s.cold_p99_ms)
        << ", \"cached_rps\": " << json_double(s.cached_rps)
        << ", \"cached_p50_ms\": " << json_double(s.cached_p50_ms)
        << ", \"cached_p99_ms\": " << json_double(s.cached_p99_ms) << "},\n";
  }
  out << "  \"totals\": {\"faults_total\": " << record.total_faults()
      << ", \"faults_covered\": " << record.total_covered()
      << ", \"gave_up\": " << record.total_gave_up()
      << ", \"peak_nodes\": " << record.total_peak_nodes()
      << ", \"cpu_ms\": " << json_double(record.total_cpu_ms()) << "}\n"
      << "}\n";
}

std::string to_json(const BenchRecord& record) {
  std::ostringstream out;
  write_json(record, out);
  return out.str();
}

// ---------------------------------------------------------------------------
// Paper tables
// ---------------------------------------------------------------------------

namespace {

template <typename... Args>
void print(std::ostream& out, const char* format, Args... args) {
  char line[256];
  std::snprintf(line, sizeof line, format, args...);
  out << line;
}

std::string family_title(const std::string& family) {
  if (family == "si")
    return "Table 1: speed-independent circuits (input/output stuck-at ATPG)";
  if (family == "bd")
    return "Table 2: hazard-free bounded-delay circuits (input/output "
           "stuck-at ATPG)";
  if (family == "rand")
    return "Seeded random netlists (input/output stuck-at ATPG)";
  if (family == "bench")
    return "ISCAS-style .bench circuits (input/output stuck-at ATPG)";
  return family + "/ circuits (input/output stuck-at ATPG)";
}

double percent(std::size_t part, std::size_t whole) {
  return 100.0 * safe_ratio(static_cast<double>(part),
                            static_cast<double>(whole));
}

const char* short_name(const CircuitRecord& row) {
  return row.id.c_str() + row.id.find('/') + 1;
}

void write_table(const std::string& family,
                 const std::vector<const CircuitRecord*>& rows,
                 std::ostream& out) {
  constexpr const char* kRule =
      "-----------------+---------------+---------------+-------------------+-"
      "-----------------------+----------\n";
  out << family_title(family) << "\n";
  print(out, "%-16s | %-13s | %-13s | %-17s | %-22s | %s\n", "", "output-s",
        "input-s", "input-s by phase", "BDD nodes", "");
  print(out, "%-16s | %5s %7s | %5s %7s | %5s %5s %5s | %8s %8s %4s | %9s\n",
        "example", "tot", "cov", "tot", "cov", "rnd", "3-ph", "sim", "peak",
        "live", "sift", "wall(ms)");
  out << kRule;
  AtpgStats o, i;  // family sums
  std::size_t peak = 0, live = 0;
  double wall_ms = 0;
  for (const CircuitRecord* row : rows) {
    const AtpgStats& ro = row->output_stuck;
    const AtpgStats& ri = row->input_stuck;
    print(out,
          "%-16s | %5zu %7zu | %5zu %7zu | %5zu %5zu %5zu | %8zu %8zu %4zu | "
          "%9.1f\n",
          short_name(*row), ro.total_faults, ro.covered, ri.total_faults,
          ri.covered, ri.by_random, ri.by_three_phase, ri.by_fault_sim,
          row->peak_nodes, row->live_nodes, row->reorders, row->cpu_ms);
    o.total_faults += ro.total_faults;
    o.covered += ro.covered;
    i.total_faults += ri.total_faults;
    i.covered += ri.covered;
    i.by_random += ri.by_random;
    i.by_three_phase += ri.by_three_phase;
    i.by_fault_sim += ri.by_fault_sim;
    peak += row->peak_nodes;
    live += row->live_nodes;
    wall_ms += row->cpu_ms;
  }
  out << kRule;
  print(out,
        "%-16s | %5zu %6.2f%% | %5zu %6.2f%% | %5zu %5zu %5zu | %8zu %8zu %4s "
        "| %9.1f\n\n",
        "Total FC", o.total_faults, percent(o.covered, o.total_faults),
        i.total_faults, percent(i.covered, i.total_faults), i.by_random,
        i.by_three_phase, i.by_fault_sim, peak, live, "", wall_ms);
}

// Figure 2 as numbers: the sizes along the TCSG -> CSSG pipeline.
void write_cssg_table(const std::string& family,
                      const std::vector<const CircuitRecord*>& rows,
                      std::ostream& out) {
  out << "Figure 2: TCSG -> CSSG abstraction, " << family << "/ circuits\n";
  print(out, "%-16s | %7s %7s | %7s %9s %7s | %7s %9s\n", "example", "reach",
        "stable", "TCR_k", "non-conf", "osc", "edges", "CSSG-rch");
  out << "-----------------+-----------------+---------------------------"
         "+------------------\n";
  for (const CircuitRecord* row : rows) {
    const CssgStats& s = row->cssg;
    print(out, "%-16s | %7.0f %7.0f | %7.0f %9.0f %7.0f | %7.0f %9.0f\n",
          short_name(*row), s.reachable_states, s.stable_states, s.tcr_pairs,
          s.nonconfluent_pairs, s.unstable_pairs, s.cssg_edges,
          s.cssg_reachable_states);
  }
  out << "\n";
}

}  // namespace

void write_tables(const BenchRecord& record, std::ostream& out) {
  std::vector<std::string> families;
  std::unordered_map<std::string, std::vector<const CircuitRecord*>> rows;
  for (const CircuitRecord& c : record.circuits) {
    const std::string family = c.id.substr(0, c.id.find('/'));
    if (rows.find(family) == rows.end()) families.push_back(family);
    rows[family].push_back(&c);
  }
  for (const std::string& family : families) {
    write_table(family, rows[family], out);
    write_cssg_table(family, rows[family], out);
  }
}

// ---------------------------------------------------------------------------
// JSON parsing: the document model and the recursive-descent parser moved to
// util/json.hpp (shared with the serve protocol); this file keeps only the
// record-shaped reading on top of it.
// ---------------------------------------------------------------------------

using json::num_field;
using json::size_field;
using json::string_field;
using JsonValue = json::Value;

namespace {

// The schema-5 objects of a circuit entry; nullptr when absent (older
// records), which leaves the field zeroed.
const JsonValue* optional_object(const JsonValue& circuit, const char* key) {
  const JsonValue* object = circuit.find(key);
  XATPG_CHECK_MSG(object == nullptr || object->type == JsonValue::Type::Object,
                  "perf record: '" << key << "' is not an object");
  return object;
}

AtpgStats parse_universe(const JsonValue& circuit, const char* key) {
  AtpgStats stats;
  const JsonValue* universe = optional_object(circuit, key);
  if (universe == nullptr) return stats;
  stats.total_faults = size_field(*universe, "total");
  stats.covered = size_field(*universe, "covered");
  stats.by_random = size_field(*universe, "rnd");
  stats.by_three_phase = size_field(*universe, "three_phase");
  stats.by_fault_sim = size_field(*universe, "sim");
  stats.undetected = size_field(*universe, "undetected");
  stats.proven_redundant = size_field(*universe, "proven_redundant");
  stats.gave_up = size_field(*universe, "gave_up");
  return stats;
}

CssgStats parse_cssg(const JsonValue& circuit) {
  CssgStats stats;
  const JsonValue* cssg = optional_object(circuit, "cssg");
  if (cssg == nullptr) return stats;
  stats.reachable_states = num_field(*cssg, "reachable_states", 0);
  stats.stable_states = num_field(*cssg, "stable_states", 0);
  stats.tcr_pairs = num_field(*cssg, "tcr_pairs", 0);
  stats.nonconfluent_pairs = num_field(*cssg, "nonconfluent_pairs", 0);
  stats.unstable_pairs = num_field(*cssg, "unstable_pairs", 0);
  stats.cssg_edges = num_field(*cssg, "cssg_edges", 0);
  stats.cssg_reachable_states = num_field(*cssg, "cssg_reachable_states", 0);
  stats.peak_bdd_nodes = size_field(*cssg, "peak_bdd_nodes");
  return stats;
}

}  // namespace

BenchRecord parse_record(const std::string& json_text) {
  const JsonValue root = json::parse(json_text);
  XATPG_CHECK_MSG(root.type == JsonValue::Type::Object,
                  "perf record: top level is not an object");
  BenchRecord record;
  record.schema = static_cast<int>(num_field(root, "schema", 0));
  XATPG_CHECK_MSG(record.schema >= 1,
                  "perf record: missing or invalid 'schema'");
  record.kernel = string_field(root, "kernel");
  record.host = string_field(root, "host");
  record.threads = size_field(root, "threads");
  record.host_cores = size_field(root, "host_cores");  // 0 on schema-1 records
  const JsonValue* circuits = root.find("circuits");
  XATPG_CHECK_MSG(circuits != nullptr &&
                      circuits->type == JsonValue::Type::Array,
                  "perf record: missing 'circuits' array");
  for (const JsonValue& entry : circuits->array) {
    XATPG_CHECK_MSG(entry.type == JsonValue::Type::Object,
                    "perf record: circuit entry is not an object");
    CircuitRecord c;
    c.id = string_field(entry, "id");
    XATPG_CHECK_MSG(!c.id.empty(), "perf record: circuit entry without 'id'");
    c.signals = size_field(entry, "signals");
    c.pins = size_field(entry, "pins");
    c.faults_total = size_field(entry, "faults_total");
    c.faults_covered = size_field(entry, "faults_covered");
    c.coverage = num_field(entry, "coverage", 0);
    c.gave_up = size_field(entry, "gave_up");  // 0 on schema-1 records
    c.sequences = size_field(entry, "sequences");
    c.cpu_ms = num_field(entry, "cpu_ms", 0);
    c.peak_nodes = size_field(entry, "peak_nodes");
    c.live_nodes = size_field(entry, "live_nodes");
    c.base_nodes = size_field(entry, "base_nodes");      // 0 pre-schema-3
    c.delta_peak = size_field(entry, "delta_peak");      // 0 pre-schema-3
    c.peak_resident_nodes =
        size_field(entry, "peak_resident_nodes");        // 0 pre-schema-3
    c.post_sift_nodes = size_field(entry, "post_sift_nodes");
    c.reorders = size_field(entry, "reorders");
    c.cache_lookups = size_field(entry, "cache_lookups");
    c.cache_hits = size_field(entry, "cache_hits");
    c.cache_hit_rate = num_field(entry, "cache_hit_rate", 0);
    c.unique_load = num_field(entry, "unique_load", 0);
    c.output_stuck = parse_universe(entry, "output_stuck");
    c.input_stuck = parse_universe(entry, "input_stuck");
    c.cssg = parse_cssg(entry);
    record.circuits.push_back(std::move(c));
  }
  if (const JsonValue* sweep = root.find("sweep")) {
    XATPG_CHECK_MSG(sweep->type == JsonValue::Type::Array,
                    "perf record: 'sweep' is not an array");
    for (const JsonValue& entry : sweep->array) {
      XATPG_CHECK_MSG(entry.type == JsonValue::Type::Object,
                      "perf record: sweep entry is not an object");
      SweepPoint point;
      point.threads = size_field(entry, "threads");
      XATPG_CHECK_MSG(point.threads > 0,
                      "perf record: sweep entry without 'threads'");
      point.cpu_ms = num_field(entry, "cpu_ms", 0);
      point.speedup = num_field(entry, "speedup", 0);
      point.efficiency = num_field(entry, "efficiency", 0);
      point.peak_resident_nodes =
          size_field(entry, "peak_resident_nodes");  // 0 pre-schema-3
      record.sweep.push_back(point);
    }
  }
  if (const JsonValue* serve = root.find("serve")) {  // absent pre-schema-4
    XATPG_CHECK_MSG(serve->type == JsonValue::Type::Object,
                    "perf record: 'serve' is not an object");
    ServeRecord& s = record.serve;
    s.requests = size_field(*serve, "requests");
    s.circuits = size_field(*serve, "circuits");
    s.workers = size_field(*serve, "workers");
    s.cold_rps = num_field(*serve, "cold_rps", 0);
    s.cold_p50_ms = num_field(*serve, "cold_p50_ms", 0);
    s.cold_p99_ms = num_field(*serve, "cold_p99_ms", 0);
    s.cached_rps = num_field(*serve, "cached_rps", 0);
    s.cached_p50_ms = num_field(*serve, "cached_p50_ms", 0);
    s.cached_p99_ms = num_field(*serve, "cached_p99_ms", 0);
  }
  return record;
}

// ---------------------------------------------------------------------------
// Comparator
// ---------------------------------------------------------------------------

Comparison compare(const BenchRecord& baseline, const BenchRecord& current,
                   const CompareOptions& options) {
  Comparison result;
  const auto fail = [&](std::string message) {
    result.ok = false;
    result.failures.push_back(std::move(message));
  };
  const auto note = [&](std::string message) {
    result.notes.push_back(std::move(message));
  };
  const auto fmt = [](double value) {
    std::ostringstream os;
    os << value;
    return os.str();
  };

  if (baseline.schema != current.schema)
    note("schema changed: " + std::to_string(baseline.schema) + " -> " +
         std::to_string(current.schema));
  if (baseline.kernel != current.kernel)
    note("kernel changed: '" + baseline.kernel + "' -> '" + current.kernel +
         "'");
  const bool cpu_comparable = !baseline.host.empty() &&
                              baseline.host == current.host &&
                              baseline.threads == current.threads;
  if (!cpu_comparable) {
    if (baseline.host.empty() || current.host.empty())
      note("CPU gates skipped: record(s) carry no host tag (run `xatpg "
           "bench --host TAG` or set XATPG_BENCH_HOST to arm them)");
    else
      note("CPU gates skipped: host/threads tags differ ('" + baseline.host +
           "'/" + std::to_string(baseline.threads) + " vs '" + current.host +
           "'/" + std::to_string(current.threads) + ")");
  }

  std::unordered_map<std::string, const CircuitRecord*> by_id;
  for (const CircuitRecord& c : current.circuits) by_id.emplace(c.id, &c);

  for (const CircuitRecord& base : baseline.circuits) {
    const auto it = by_id.find(base.id);
    if (it == by_id.end()) {
      fail(base.id + ": missing from the current record");
      continue;
    }
    const CircuitRecord& cur = *it->second;
    if (cur.faults_total != base.faults_total) {
      fail(base.id + ": fault universe changed (" +
           std::to_string(base.faults_total) + " -> " +
           std::to_string(cur.faults_total) +
           "); refresh the baseline intentionally");
      continue;
    }
    if (cur.faults_covered < base.faults_covered)
      fail(base.id + ": coverage dropped (" +
           std::to_string(base.faults_covered) + " -> " +
           std::to_string(cur.faults_covered) + " of " +
           std::to_string(base.faults_total) + ")");
    else if (cur.faults_covered > base.faults_covered)
      note(base.id + ": coverage improved (" +
           std::to_string(base.faults_covered) + " -> " +
           std::to_string(cur.faults_covered) + ")");
    // gave_up distinguishes "searched and redundant" from "cap blowout":
    // a rise with flat coverage means the caps started truncating searches
    // that previously ran to completion — worth eyes even when no covered
    // fault regressed.
    if (cur.gave_up > base.gave_up)
      note(base.id + ": gave_up rose (" + std::to_string(base.gave_up) +
           " -> " + std::to_string(cur.gave_up) +
           "); searches are newly hitting resource caps");
    else if (cur.gave_up < base.gave_up)
      note(base.id + ": gave_up fell (" + std::to_string(base.gave_up) +
           " -> " + std::to_string(cur.gave_up) + ")");

    const double node_bound = static_cast<double>(base.peak_nodes) *
                              (1.0 + options.max_node_regression);
    if (static_cast<double>(cur.peak_nodes) > node_bound)
      fail(base.id + ": peak nodes regressed >" +
           fmt(100.0 * options.max_node_regression) + "% (" +
           std::to_string(base.peak_nodes) + " -> " +
           std::to_string(cur.peak_nodes) + ")");
    else if (static_cast<double>(cur.peak_nodes) <
             static_cast<double>(base.peak_nodes) *
                 (1.0 - options.max_node_regression))
      note(base.id + ": peak nodes improved >" +
           fmt(100.0 * options.max_node_regression) + "% (" +
           std::to_string(base.peak_nodes) + " -> " +
           std::to_string(cur.peak_nodes) + "); consider refreshing the "
           "baseline to lock it in");

    if (cpu_comparable && base.cpu_ms >= options.min_cpu_ms &&
        cur.cpu_ms > base.cpu_ms * (1.0 + options.max_cpu_regression))
      fail(base.id + ": CPU regressed >" +
           fmt(100.0 * options.max_cpu_regression) + "% (" +
           fmt(base.cpu_ms) + " -> " + fmt(cur.cpu_ms) + " ms)");
  }

  for (const CircuitRecord& cur : current.circuits) {
    const auto in_baseline = [&] {
      for (const CircuitRecord& base : baseline.circuits)
        if (base.id == cur.id) return true;
      return false;
    };
    if (!in_baseline())
      note(cur.id + ": new circuit (not in the baseline)");
  }

  if (cpu_comparable) {
    const double base_total = baseline.total_cpu_ms();
    const double cur_total = current.total_cpu_ms();
    if (base_total > 0 &&
        cur_total > base_total * (1.0 + options.max_cpu_regression))
      fail("total CPU regressed >" + fmt(100.0 * options.max_cpu_regression) +
           "% (" + fmt(base_total) + " -> " + fmt(cur_total) + " ms)");
  }

  // Scaling gates: sweep curves are only comparable between records from
  // the same machine class — same host tag AND same core count.  A 1-core
  // host's curve carries no parallelism signal at all (workers time-slice
  // one core), so it never gates.
  if (!baseline.sweep.empty() && !current.sweep.empty()) {
    const bool sweep_comparable = !baseline.host.empty() &&
                                  baseline.host == current.host &&
                                  baseline.host_cores == current.host_cores &&
                                  baseline.host_cores > 1;
    if (!sweep_comparable) {
      note("scaling gates skipped: sweep records are from different or "
           "single-core hosts ('" + baseline.host + "'/" +
           std::to_string(baseline.host_cores) + " cores vs '" +
           current.host + "'/" + std::to_string(current.host_cores) +
           " cores)");
    } else {
      for (const SweepPoint& base : baseline.sweep) {
        const SweepPoint* cur = nullptr;
        for (const SweepPoint& p : current.sweep)
          if (p.threads == base.threads) cur = &p;
        if (cur == nullptr) {
          note("sweep point threads=" + std::to_string(base.threads) +
               " missing from the current record");
          continue;
        }
        if (base.threads <= 1 || base.speedup <= 0) continue;
        if (cur->speedup <
            base.speedup * (1.0 - options.max_speedup_regression))
          fail("scaling at threads=" + std::to_string(base.threads) +
               " regressed >" + fmt(100.0 * options.max_speedup_regression) +
               "% (speedup " + fmt(base.speedup) + "x -> " +
               fmt(cur->speedup) + "x)");
        else if (cur->speedup >
                 base.speedup * (1.0 + options.max_speedup_regression))
          note("scaling at threads=" + std::to_string(base.threads) +
               " improved (speedup " + fmt(base.speedup) + "x -> " +
               fmt(cur->speedup) + "x)");
      }
    }
  } else if (!baseline.sweep.empty()) {
    note("scaling gates skipped: current record has no threads sweep");
  }

  // Cross-thread memory gate — self-contained within the CURRENT record's
  // sweep (node counts do not depend on machine speed, so unlike CPU it needs no
  // matching host tags): resident peak at T >= 4 threads must stay under
  // max_peak_resident_frac x T x the threads=1 footprint.  The old
  // private-shard design scaled as T x single-shard peak; the shared frozen
  // base holds the substrate once, and this gate keeps that win locked in.
  if (!current.sweep.empty()) {
    const SweepPoint* single = nullptr;
    for (const SweepPoint& p : current.sweep)
      if (p.threads == 1) single = &p;
    if (single == nullptr || single->peak_resident_nodes == 0) {
      note("memory gates skipped: sweep has no threads=1 "
           "peak_resident_nodes (pre-schema-3 record)");
    } else {
      for (const SweepPoint& p : current.sweep) {
        if (p.threads < 4 || p.peak_resident_nodes == 0) continue;
        const double bound = options.max_peak_resident_frac *
                             static_cast<double>(p.threads) *
                             static_cast<double>(single->peak_resident_nodes);
        if (static_cast<double>(p.peak_resident_nodes) > bound)
          fail("memory at threads=" + std::to_string(p.threads) +
               ": peak resident nodes " +
               std::to_string(p.peak_resident_nodes) + " exceed " +
               fmt(100.0 * options.max_peak_resident_frac) + "% of " +
               std::to_string(p.threads) + "x the threads=1 footprint (" +
               std::to_string(single->peak_resident_nodes) +
               ") — the shared-base memory win regressed");
      }
    }
  }
  return result;
}

}  // namespace xatpg::perf
