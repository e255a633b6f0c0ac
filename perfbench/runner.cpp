// Benchmark runner: prepares a workload's inputs from a seed and runs the
// in-process workloads, timing every layer from outside through its public
// functions.  perfbench/run.py builds and invokes it; see README.md.
//
//   perfbench_runner prepare <workload> <seed> <out-dir>
//   perfbench_runner run <workload> <in-dir> <seconds> <trace-file|->
//   perfbench_runner reference <requests.ndjson>
//
// `run` prints one JSON object on its last line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <deque>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "benchmarks/benchmarks.hpp"
#include "checker.hpp"
#include "netlist/netlist.hpp"
#include "netlist/random_netlist.hpp"
#include "perf/perf.hpp"
#include "serve/protocol.hpp"
#include "sgraph/cssg.hpp"
#include "sim/explicit.hpp"
#include "sim/ternary.hpp"
#include "stg/stg.hpp"
#include "synth/synth.hpp"
#include "util/random.hpp"
#include "xatpg/session.hpp"

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_start = Clock::now();

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// --- host speed ---------------------------------------------------------------
//
// The shared host's speed drifts by up to 1.5x over minutes (README.md), and
// no statistic inside one run removes that.  So a fixed reference unit runs
// between jobs: a churn of std::set<std::vector<bool>>, the fault
// simulator's own kind of data, compiled into the benchmark so that no
// change to the program moves it.  Every time is reported as it would read
// on a host where one reference unit takes kReferenceUnitS: the raw time
// times kReferenceUnitS / (mean reference unit around it).  The mean, not
// the median: a job's time is the mean of the host's speed over it, also
// when the host slices the CPU finer than a unit.

constexpr double kReferenceUnitS = 0.004;

/// Reference units, one before every job and one after the last, and the
/// jobs between them.
struct HostSpeed {
  struct Unit {
    double seconds, at;  ///< duration; midpoint since g_start
  };
  struct Job {
    std::size_t before;  ///< index of the unit run just before the job
    double start, end;
  };
  std::vector<Unit> units;
  std::vector<Job> jobs;

  void unit();
  /// Scale of a job: kReferenceUnitS / the mean of the units right before
  /// and after it and of every unit within its own length of it, so that a
  /// short job takes the host's state of the moment and a long one the
  /// state over its span.
  double scale(const Job& j) const {
    const double len = j.end - j.start;
    double sum = units[j.before].seconds + units[j.before + 1].seconds;
    std::size_t n = 2;
    for (std::size_t u = j.before; u-- > 0 && units[u].at >= j.start - len; ++n)
      sum += units[u].seconds;
    for (std::size_t u = j.before + 2; u < units.size() && units[u].at <= j.end + len; ++u, ++n)
      sum += units[u].seconds;
    return kReferenceUnitS * static_cast<double>(n) / sum;
  }
};

/// One reference unit: 2500 inserts of a random 200-bit vector into a set
/// held at the last 20000 inserted (a few MB, so that it meets the same
/// caches as a synthesis or a fault simulation), each evicting the oldest.
/// The set and the generator persist, so every unit does the same work on
/// the same-sized set.
double reference_unit() {
  static std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  static std::set<std::vector<bool>> s;
  static std::deque<std::set<std::vector<bool>>::iterator> age;
  const auto insert = [] {
    std::vector<bool> v(200);
    for (auto&& b : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = x & 1;
    }
    age.push_back(s.insert(std::move(v)).first);
  };
  while (s.size() < 20000) insert();  // the first unit fills the set untimed
  const Clock::time_point t = Clock::now();
  for (int i = 0; i < 2500; ++i) {
    insert();
    s.erase(age.front());
    age.pop_front();
  }
  if (s.size() != 20000) throw std::logic_error("reference unit lost entries");
  return since(t);
}

void HostSpeed::unit() {
  const double t = since(g_start);
  const double d = reference_unit();
  units.push_back({d, t + d / 2});
}

double mean_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- inputs -------------------------------------------------------------------

/// One job's circuit: a named Table 1 benchmark ("si") or netlist text.
struct Circuit {
  std::string label, format, text;
};

/// Signal-name prefix placeholder; run.py and prepare substitute it so the
/// same structure reaches the program under names derived from the seed.
constexpr const char* kPrefix = "P%_";

std::string prefixed(const std::string& xnl, const std::string& prefix) {
  // Rewrite every signal name in canonical .xnl text (tokens after the
  // directive, except gate types and cover fields).
  std::istringstream in(xnl);
  std::ostringstream out;
  for (std::string line; std::getline(in, line);) {
    std::istringstream toks(line);
    std::vector<std::string> t;
    for (std::string s; toks >> s;) t.push_back(s);
    if (t.empty()) continue;
    const std::string& d = t[0];
    std::size_t first = 1;
    bool cover = false;
    if (d == ".gate") first = 2;
    if (d == ".model" || d == ".end") first = t.size();
    int colons = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i) out << ' ';
      if (t[i] == ":") {
        ++colons;
        cover = colons >= 2;
        out << t[i];
      } else if (i >= first && !cover) {
        out << prefix << t[i];
      } else {
        out << t[i];
      }
    }
    out << '\n';
  }
  return out.str();
}

std::string fanout_tree(unsigned n) {
  std::ostringstream x;
  x << ".model fan" << n << "\n.inputs a\n.outputs";
  for (unsigned i = 0; i < n; ++i) x << " b" << i;
  x << "\n";
  for (unsigned i = 0; i < n; ++i) x << ".gate BUF b" << i << " a\n";
  x << ".end\n";
  return x.str();
}

std::string celem_ring(unsigned n) {
  // c0 = C(a, !c_{n-1}), c_i = C(c_{i-1}, !c_{i+1 mod n}): a Muller ring
  // driven by one request input.
  std::ostringstream x;
  x << ".model ring" << n << "\n.inputs a\n.outputs c" << n - 1 << "\n";
  for (unsigned i = 0; i < n; ++i) x << ".gate NOT n" << i << " c" << i << "\n";
  x << ".gate C c0 a n" << n - 1 << "\n";
  for (unsigned i = 1; i < n; ++i)
    x << ".gate C c" << i << " c" << i - 1 << " n" << (i + 1) % n << "\n";
  x << ".end\n";
  return x.str();
}

std::string bench_prefixed(const std::string& text, const std::string& prefix) {
  std::string out;
  std::string name;
  const auto flush = [&] {
    if (!name.empty()) out += (name == "INPUT" || name == "OUTPUT" ||
                               name == "NAND" || name == "XOR" ||
                               name == "AND" || name == "OR" || name == "NOT")
                                  ? name
                                  : prefix + name;
    name.clear();
  };
  bool comment = false;
  for (const char c : text) {
    comment = c == '#' || (comment && c != '\n');
    if (!comment && (std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      name += c;
    } else {
      flush();
      out += c;
    }
  }
  flush();
  return out;
}

/// The fixed netlist set: same circuits for every seed, so counts repeat.
/// The random shapes and .bench texts are the `xatpg bench` corpus's.
std::vector<Circuit> netlist_set() {
  std::vector<Circuit> out;
  using Kind = xatpg::perf::CorpusEntry::Kind;
  const auto corpus = xatpg::perf::default_corpus();
  for (const auto& e : corpus)
    if (e.kind == Kind::RandomNetlist)
      out.push_back({e.id, "xnl",
                     prefixed(xatpg::write_xnl_string(xatpg::random_netlist(
                                  e.seed, {e.rand_inputs, e.rand_gates, true})),
                              kPrefix)});
  for (const std::string& name : xatpg::bd_benchmark_names())
    out.push_back(
        {"bd/" + name, "xnl",
         prefixed(xatpg::write_xnl_string(
                      xatpg::benchmark_circuit(name, xatpg::SynthStyle::BoundedDelay)
                          .netlist),
                  kPrefix)});
  for (const auto& e : corpus)
    if (e.kind == Kind::BenchText)
      out.push_back({e.id, "bench", bench_prefixed(e.text, kPrefix)});
  for (const unsigned n : {4u, 8u, 10u, 12u, 13u})
    out.push_back({"fan" + std::to_string(n), "xnl", prefixed(fanout_tree(n), kPrefix)});
  for (const unsigned n : {3u, 4u, 5u})
    out.push_back({"ring" + std::to_string(n), "xnl", prefixed(celem_ring(n), kPrefix)});
  return out;
}

std::string replace_all(std::string s, const std::string& from, const std::string& to) {
  for (std::size_t p = s.find(from); p != std::string::npos; p = s.find(from, p + to.size()))
    s.replace(p, from.size(), to);
  return s;
}

template <typename T>
void shuffle(std::vector<T>& v, xatpg::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

void write_circuits(const std::string& path, const std::vector<Circuit>& cs) {
  std::ofstream out(path);
  for (const Circuit& c : cs) {
    out << "### " << c.label << ' ' << c.format << '\n' << c.text;
    if (c.text.empty() || c.text.back() != '\n') out << '\n';
  }
}

std::vector<Circuit> read_circuits(const std::string& path) {
  std::ifstream in(path);
  std::vector<Circuit> out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("### ", 0) == 0) {
      std::istringstream h(line.substr(4));
      Circuit c;
      h >> c.label >> c.format;
      out.push_back(c);
    } else if (!out.empty()) {
      out.back().text += line + '\n';
    }
  }
  for (Circuit& c : out)
    if (c.format == "si") c.text.pop_back();  // a name, not a netlist
  return out;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + '"';
}

/// Text circuits the serve mix leaves out: each takes 0.5-2.5 s per request.
const std::set<std::string> kServeSkipped = {"rand/s12", "rand/s13", "rand/s24", "rand/s25",
                                             "bd/vbe10b", "fan12", "fan13"};

/// Small named-benchmark subset the serve mix requests by name.
const char* const kServeNamed[] = {"chu150", "converta", "hazard", "mmu", "seq4", "nak-pa"};

int cmd_prepare(const std::string& workload, std::uint64_t seed, const std::string& dir) {
  xatpg::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  const std::string prefix = "s" + std::to_string(seed) + "_";
  if (workload == "table1-si") {
    std::vector<Circuit> cs;
    for (const std::string& n : xatpg::si_benchmark_names()) cs.push_back({"si/" + n, "si", n});
    shuffle(cs, rng);
    write_circuits(dir + "/circuits.txt", cs);
    return 0;
  }
  std::vector<Circuit> cs = netlist_set();
  for (Circuit& c : cs) c.text = replace_all(c.text, kPrefix, prefix);
  if (workload == "netlists") {
    shuffle(cs, rng);
    write_circuits(dir + "/circuits.txt", cs);
    return 0;
  }
  if (workload != "serve-mix") return 2;
  // The serve mix.  Its cold requests: every text circuit below about
  // 0.5 s per request in both option modes, and the named subset with
  // random_budget 0.  The slower circuits stay in `netlists`; here they
  // would stretch a round to several seconds, leaving too few rounds per
  // run for steady latencies.  `R%` in a text marks where run.py inserts
  // the round number, so each round's keys are fresh; named requests get a
  // fresh option seed instead (with random_budget 0 the seed cannot change
  // the result).  Each round sends every cold request once, with one repeat
  // of an earlier request of the round after every third.  The order and
  // the repeats are the same in every round and for every seed: which large
  // requests overlap on the two workers sets a round's wall time, and a
  // per-round shuffle moved it by up to 50%.
  std::ofstream lines(dir + "/requests.txt");
  std::size_t cold = 0;
  for (const Circuit& c : cs) {
    if (kServeSkipped.count(c.label)) continue;
    const std::string text = replace_all(c.text, prefix, prefix + "R%_");
    for (const bool zero : {false, true}) {
      lines << "{\"op\":\"submit\",\"id\":\"ID%\",\"faults\":\"both\","
               "\"circuit\":{\"format\":\"" << c.format << "\",\"text\":" << json_str(text)
            << "},\"options\":{\"threads\":1" << (zero ? ",\"random_budget\":0" : "")
            << "}}\n";
      ++cold;
    }
  }
  for (const char* name : kServeNamed) {
    lines << "{\"op\":\"submit\",\"id\":\"ID%\",\"faults\":\"both\","
             "\"circuit\":{\"format\":\"benchmark\",\"name\":\"" << name
          << "\",\"style\":\"si\"},\"options\":{\"threads\":1,"
             "\"random_budget\":0,\"seed\":SEED%}}\n";
    ++cold;
  }
  xatpg::Rng fixed(7);
  std::vector<std::size_t> order(cold);
  std::iota(order.begin(), order.end(), 0);
  shuffle(order, fixed);
  std::ofstream round(dir + "/round.txt");
  for (std::size_t i = 0; i < cold; ++i) {
    round << 'C' << order[i] << ' ';
    if (i >= 2 && i % 3 == 2) round << 'H' << order[fixed.below(i - 1)] << ' ';
  }
  round << '\n';
  return 0;
}

// --- tracing --------------------------------------------------------------------

struct Span {
  std::string name;
  double t0, t1;
  int parent;
  int job;
};

class Tracer {
 public:
  bool on = false;
  int begin(const std::string& name, int job) {
    if (!on) return -1;
    spans_.push_back({name, since(g_start), -1, open_.empty() ? -1 : open_.back(), job});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[id].t1 = since(g_start);
    open_.pop_back();
  }
  /// Total and self seconds per span name.
  std::map<std::string, std::pair<double, double>> totals() const {
    std::map<std::string, std::pair<double, double>> out;
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.t1 - s.t0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& [total, self] = out[spans_[i].name];
      total += spans_[i].t1 - spans_[i].t0;
      self += spans_[i].t1 - spans_[i].t0 - child[i];
    }
    return out;
  }
  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":" << json_str(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.t0 * 1e6
          << ",\"dur\":" << (s.t1 - s.t0) * 1e6 << ",\"args\":{\"job\":" << s.job
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

Tracer g_trace;

struct Scope {
  int id;
  Scope(const std::string& name, int job) : id(g_trace.begin(name, job)) {}
  ~Scope() { g_trace.end(id); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

/// Per-layer counters, summed over the run.
std::map<std::string, double> g_count;

/// Splits AtpgEngine::run into random / three-phase search / merge by the
/// observer events it fires on the calling thread.
class PhaseClock : public xatpg::RunObserver {
 public:
  void on_phase(xatpg::RunPhase phase) override {
    const double t = since(g_start);
    if (phase == xatpg::RunPhase::RandomTpg) start_ = t;
    if (phase == xatpg::RunPhase::ThreePhase) three_ = t;
    if (phase == xatpg::RunPhase::Done) {
      const double commit = first_commit_ > 0 ? first_commit_ : t;
      g_count["atpg.random_s"] += three_ - start_;
      g_count["atpg.three_phase_s"] += commit - three_;
      g_count["atpg.merge_s"] += t - commit;
    }
  }
  void on_fault_resolved(std::size_t, const xatpg::FaultOutcome& o) override {
    if (o.covered_by == xatpg::CoveredBy::ThreePhase && first_commit_ == 0)
      first_commit_ = since(g_start);
  }

 private:
  double start_ = 0, three_ = 0, first_commit_ = 0;
};

// --- jobs -------------------------------------------------------------------------

struct JobResult {
  double latency = 0, build = 0;
  std::size_t covered = 0, vectors = 0;
  std::string digest;  ///< outcomes + sequences, for cross-run identity
  perfbench::JobOutput output;
};

xatpg::Expected<xatpg::Session> make_session(const Circuit& c, const xatpg::AtpgOptions& o) {
  if (c.format == "si") return xatpg::Session::from_benchmark(c.text, xatpg::SynthStyle::SpeedIndependent, o);
  if (c.format == "bench") return xatpg::Session::from_bench(c.text, o);
  return xatpg::Session::from_xnl(c.text, o);
}

std::string digest(const xatpg::AtpgResult& r) {
  return xatpg::serve::serialize_result("", "", r);
}

/// Names of the session's signals, recovered through its public describe().
std::vector<std::string> signal_names(const xatpg::Session& s) {
  std::vector<std::string> names;
  for (std::size_t id = 0; id < s.num_signals(); ++id) {
    const std::string d = s.describe({xatpg::Fault::Site::SignalOutput,
                                      static_cast<xatpg::SignalId>(id), 0, false});
    names.push_back(d.substr(4, d.rfind(" s-a-") - 4));
  }
  return names;
}

perfbench::JobOutput export_for_check(const xatpg::Session& s, const Circuit& c,
                                      const xatpg::AtpgResult* res[2],
                                      const std::string programs[2]) {
  perfbench::JobOutput out;
  out.xnl = s.circuit_xnl();
  out.k = s.options().k;
  out.counts = perfbench::count_netlist_text(c.format == "si" ? out.xnl : c.text,
                                             c.format == "bench");
  const auto names = signal_names(s);
  for (std::size_t i = 0; i < names.size(); ++i)
    if (s.reset_state()[i]) out.reset_high.push_back(names[i]);
  for (int u = 0; u < 2; ++u) {
    std::vector<std::vector<std::vector<bool>>> seqs;
    for (const auto& seq : res[u]->sequences) seqs.push_back(seq.vectors);
    out.sequences.push_back(seqs);
    std::vector<perfbench::NamedFault> faults;
    for (const auto& o : res[u]->outcomes)
      faults.push_back({o.fault.site == xatpg::Fault::Site::GatePin, names[o.fault.gate],
                        o.fault.pin, o.fault.stuck_value,
                        o.covered_by == xatpg::CoveredBy::None ? -1 : o.sequence_index});
    out.universes.push_back(faults);
    out.programs.push_back(programs[u]);
  }
  return out;
}

/// Replays a job's circuit through the layers below the Session, each timed
/// from outside through its public functions (traced runs only).
void replay_layers(const Circuit& c, const xatpg::Session& s,
                   const xatpg::AtpgResult& in_res, int job) {
  xatpg::Netlist netlist;
  std::vector<bool> reset;
  if (c.format == "si") {
    const xatpg::Stg stg = xatpg::benchmark_stg(c.text);
    xatpg::StateGraph sg = [&] { Scope sp("stg.expand", job); return xatpg::expand_stg(stg); }();
    g_count["stg.states"] += sg.num_states();
    xatpg::SynthResult synth = [&] { Scope sp("synth.synthesize", job); return xatpg::synthesize(sg); }();
    g_count["synth.cubes"] += synth.num_cubes;
    {
      Scope sp("netlist.parse", job);
      (void)xatpg::parse_xnl_string(s.circuit_xnl());
    }
    netlist = std::move(synth.netlist);
    reset = std::move(synth.reset_state);
  } else {
    Scope sp("netlist.parse", job);
    netlist = c.format == "bench" ? xatpg::parse_bench_string(c.text) : xatpg::parse_xnl_string(c.text);
    reset.assign(netlist.num_signals(), false);
    (void)xatpg::settle_to_stable(netlist, reset);
  }
  xatpg::CssgOptions co;
  co.k = s.options().k;
  std::optional<xatpg::Cssg> cssg;
  {
    Scope sp("sgraph.cssg", job);
    cssg.emplace(netlist, std::vector<std::vector<bool>>{reset}, co);
  }
  {
    Scope sp("sgraph.extract", job);
    (void)cssg->extract_explicit();
  }
  g_count["sgraph.stable_states"] += cssg->stats().stable_states;
  g_count["sgraph.cssg_edges"] += cssg->stats().cssg_edges;
  if (c.format == "si") return;
  // Text circuits: the Session parsed the same text, so its fault ids and
  // input order are this netlist's.  Replay the job's own tests.
  {
    Scope sp("sim.explore", job);
    for (const auto& seq : in_res.sequences) {
      std::vector<bool> st = reset;
      for (const auto& v : seq.vectors) {
        const xatpg::ExploreResult r = xatpg::explore_settling(netlist, st, v, co.k);
        g_count["sim.explore_states"] += r.states_visited;
        if (r.stable_states.size() != 1) break;
        st = *r.stable_states.begin();
      }
    }
  }
  {
    Scope sp("sim.faultsim", job);
    for (const auto& o : in_res.outcomes) {
      if (o.sequence_index < 0) continue;
      xatpg::FaultSimulator sim(netlist, o.fault, reset, s.options().sim);
      std::vector<bool> st = reset;
      for (const auto& v : in_res.sequences[o.sequence_index].vectors) {
        const auto r = xatpg::explore_settling(netlist, st, v, co.k);
        st = *r.stable_states.begin();
        g_count["sim.faultsim_steps"] += 1;
        if (sim.step(v, st) != xatpg::DetectStatus::Undetermined) break;
      }
      if (sim.status() == xatpg::DetectStatus::GaveUp) g_count["sim.faultsim_gave_up"] += 1;
    }
  }
  {
    Scope sp("sim.ternary_screen", job);
    const auto faults = s.input_stuck_faults();
    for (std::size_t b = 0; b < faults.size(); b += 63) {
      const std::vector<xatpg::Fault> batch(faults.begin() + b,
                                            faults.begin() + std::min(faults.size(), b + 63));
      for (const auto& seq : in_res.sequences)
        (void)xatpg::ternary_screen(netlist, reset, batch, seq.vectors);
    }
  }
}

JobResult run_job(const Circuit& c, const xatpg::AtpgOptions& opts, int job, bool keep,
                  bool replay) {
  JobResult r;
  const Clock::time_point t0 = Clock::now();
  const int top = g_trace.begin("job", job);
  const int b = g_trace.begin("api.build", job);
  xatpg::Expected<xatpg::Session> s = make_session(c, opts);
  g_trace.end(b);
  r.build = since(t0);
  if (!s) throw std::runtime_error(c.label + ": " + s.error().to_string());
  xatpg::AtpgResult res[2];
  std::string programs[2];
  for (int u = 0; u < 2; ++u) {
    PhaseClock clock;
    const int sp = g_trace.begin("api.run", job);
    auto out = s->run(u == 0 ? s->output_stuck_faults() : s->input_stuck_faults(),
                      g_trace.on ? &clock : nullptr);
    g_trace.end(sp);
    if (!out) throw std::runtime_error(c.label + ": " + out.error().to_string());
    res[u] = std::move(*out);
    const int ex = g_trace.begin("api.export", job);
    auto program = s->test_program(res[u]);
    g_trace.end(ex);
    if (!program) throw std::runtime_error(c.label + ": " + program.error().to_string());
    programs[u] = std::move(*program);
    r.covered += res[u].stats.covered;
    for (const auto& seq : res[u].sequences) r.vectors += seq.vectors.size();
    if (g_trace.on) {
      g_count["atpg.run_s"] += res[u].stats.seconds;
      g_count["atpg.three_phase_found"] += res[u].stats.by_three_phase;
      std::size_t base = 0, lookups = 0, hits = 0;
      for (const auto& sh : s->shard_bdd_stats()) {
        base = sh.base_nodes;
        g_count["bdd.peak_nodes"] += sh.delta_peak;
        g_count["atpg.three_phase_searched"] += sh.faults_done;
        g_count["atpg.steals"] += sh.blocks_stolen;
        lookups += sh.cache_lookups;
        hits += sh.cache_hits;
      }
      g_count["bdd.peak_nodes"] += base;
      g_count["bdd.cache_lookups"] += lookups;
      g_count["bdd.cache_hits"] += hits;
    }
  }
  g_trace.end(top);
  r.latency = since(t0);
  r.digest = digest(res[0]) + digest(res[1]);
  if (keep) {
    const xatpg::AtpgResult* rp[2] = {&res[0], &res[1]};
    r.output = export_for_check(*s, c, rp, programs);
  }
  if (replay) replay_layers(c, *s, res[1], job);
  return r;
}

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = p * (v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

int cmd_run(const std::string& workload, const std::string& dir, double seconds,
            const std::string& trace_file) {
  const std::vector<Circuit> cs = read_circuits(dir + "/circuits.txt");
  if (cs.empty()) return 2;
  xatpg::AtpgOptions opts;
  opts.threads = workload == "netlists" ? 2 : 1;
  g_trace.on = trace_file != "-";
  const double ready = since(g_start);

  // latencies[i]: job i's latency in every pass (raw: as measured; at:
  // its place in host.jobs).
  std::vector<std::vector<double>> latencies(cs.size()), raw(cs.size());
  std::vector<std::vector<std::size_t>> at(cs.size());
  std::vector<double> pass_untraced, pass_traced;
  HostSpeed host;
  std::vector<JobResult> first;
  std::string error;
  double setup = ready, setup_scale = 1;
  std::size_t attempted = 0, failed = 0, passes = 0, covered = 0, vectors = 0;
  std::vector<std::string> pass_digest;
  // Pass 0 runs in the prepared (seeded) order, later passes in orders drawn
  // from it, so that no job always follows the same job.  With one order per
  // run, latency_p50_ms (short jobs) spread 0.13-0.16 over ten seeds.
  std::vector<std::size_t> order(cs.size());
  std::iota(order.begin(), order.end(), 0);
  std::string labels;
  for (const Circuit& c : cs) labels += c.label;
  xatpg::Rng order_rng(std::hash<std::string>{}(labels));
  const Clock::time_point t0 = Clock::now();
  // Whole passes until the window is spent and at least 100 jobs ran.  In a
  // traced run odd passes run with span recording off, for the overhead.
  while (passes == 0 || since(t0) < seconds || attempted < 100) {
    const bool traced_pass = g_trace.on && passes % 2 == 0;
    const bool was_on = g_trace.on;
    g_trace.on = traced_pass;
    double pass_time = 0;
    std::size_t pc = 0, pv = 0;
    std::vector<std::string> pd(cs.size());
    const std::size_t pass_units = host.units.size();
    if (passes > 0) shuffle(order, order_rng);
    for (const std::size_t i : order) {
      ++attempted;
      host.unit();
      try {
        const double start = since(g_start);
        JobResult r = run_job(cs[i], opts, static_cast<int>(passes * cs.size() + i),
                              passes == 0, traced_pass);
        at[i].push_back(host.jobs.size());
        host.jobs.push_back({host.units.size() - 1, start, start + r.latency});
        raw[i].push_back(r.latency);
        pass_time += r.latency;
        if (passes == 0) setup += r.build;
        pc += r.covered;
        pv += r.vectors;
        pd[i] = r.digest;
        if (passes == 0) first.push_back(std::move(r));
      } catch (const std::exception& e) {
        ++failed;
        if (error.empty()) error = e.what();
      }
    }
    g_trace.on = was_on;
    // The pass's scale, from the units run between its jobs, for the
    // set-up and the pass times.
    double pass_unit = 0;
    for (std::size_t u = pass_units; u < host.units.size(); ++u) pass_unit += host.units[u].seconds;
    const double pass_scale =
        kReferenceUnitS * static_cast<double>(host.units.size() - pass_units) / pass_unit;
    if (passes == 0) setup_scale = pass_scale;
    (traced_pass ? pass_traced : pass_untraced).push_back(pass_time * pass_scale);
    if (passes == 0) {
      covered = pc, vectors = pv, pass_digest = pd;
    } else if (pc != covered || pv != vectors || pd != pass_digest) {
      if (error.empty()) error = "pass " + std::to_string(passes) + " results differ from pass 0";
    }
    ++passes;
  }
  const double rss = peak_rss_mib();
  host.unit();
  for (std::size_t i = 0; i < cs.size(); ++i)
    for (std::size_t k = 0; k < raw[i].size(); ++k)
      latencies[i].push_back(raw[i][k] * host.scale(host.jobs[at[i][k]]));
  double unit_sum = 0;
  for (const auto& u : host.units) unit_sum += u.seconds;
  const double scale =  // for the layer times
      kReferenceUnitS * static_cast<double>(host.units.size()) / unit_sum;

  // --- checks, outside the timed window -----------------------------------
  for (std::size_t i = 0; i < first.size() && error.empty(); ++i)
    if (std::string e = perfbench::check_job(first[i].output); !e.empty())
      error = cs[i].label + ": " + e;
  if (error.empty()) {
    // Self-test on the first job by label that has an uncovered fault (else
    // the first by label), so the circuit does not depend on the job order.
    std::pair<bool, std::string> best{true, ""};
    const JobResult* pick = nullptr;
    for (std::size_t i = 0; i < first.size(); ++i) {
      bool covered_all = true;
      for (const auto& u : first[i].output.universes)
        for (const auto& f : u) covered_all &= f.sequence >= 0;
      const std::pair<bool, std::string> key{covered_all, cs[i].label};
      if (!pick || key < best) best = key, pick = &first[i];
    }
    if (pick)
      if (std::string e = perfbench::self_test(pick->output); !e.empty())
        error = "self-test: " + e;
  }
  if (error.empty() && opts.threads != 1) {
    // Cross-path check: a threads-1 pass gives byte-identical outcomes.
    const bool was_on = g_trace.on;
    g_trace.on = false;
    xatpg::AtpgOptions one = opts;
    one.threads = 1;
    for (std::size_t i = 0; i < cs.size() && error.empty(); ++i)
      if (run_job(cs[i], one, -1, false, false).digest != first[i].digest)
        error = cs[i].label + ": threads 1 and threads " + std::to_string(opts.threads) + " differ";
    g_trace.on = was_on;
  }

  std::ostringstream m;
  const auto metric = [&](const std::string& name, double v, const char* unit) {
    m << (m.tellp() > 1 ? "," : "") << json_str(name) << ":{\"value\":" << v
      << ",\"unit\":\"" << unit << "\"}";
  };
  m << '{';
  m.precision(10);
  if (!g_trace.on) {
    // Each job's latency is its median pass at reference speed: the median
    // discards bursts that slow single passes, the scale the host's drift.
    // The percentiles are taken over the jobs.
    std::vector<double> ms;
    double sum = 0, raw_sum = 0;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (latencies[i].empty()) continue;
      raw_sum += median_of(raw[i]);
      ms.push_back(median_of(latencies[i]) * 1e3);
      sum += ms.back() / 1e3;
    }
    std::cerr << "perfbench: mean reference unit " << kReferenceUnitS / scale * 1e3
              << " ms; unscaled jobs_per_s " << static_cast<double>(ms.size()) / raw_sum
              << ", setup_s " << setup << '\n';
    metric("jobs_per_s", static_cast<double>(ms.size()) / sum, "1/s");
    metric("latency_p50_ms", percentile(ms, 0.5), "ms");
    metric("latency_p90_ms", percentile(ms, 0.9), "ms");
    metric("setup_s", setup * setup_scale, "s");
    metric("peak_rss_mib", rss, "MiB");
    metric("faults_covered", static_cast<double>(covered), "count");
    metric("test_vectors", static_cast<double>(vectors), "count");
  } else {
    const std::size_t traced = pass_traced.size();
    const auto totals = g_trace.totals();
    const auto per_pass = [&](const std::string& name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.first * scale / traced;
    };
    const auto count = [&](const std::string& name) { return g_count[name] / traced; };
    for (const char* s : {"stg.expand", "synth.synthesize", "netlist.parse", "sgraph.cssg",
                          "sgraph.extract", "sim.faultsim", "sim.ternary_screen",
                          "api.build", "api.run", "api.export"})
      metric(std::string(s) + "_s", per_pass(s), "s");
    for (const char* s : {"stg.states", "synth.cubes", "sgraph.stable_states",
                          "sgraph.cssg_edges", "bdd.peak_nodes", "atpg.steals",
                          "sim.faultsim_steps", "sim.faultsim_gave_up", "sim.explore_states"})
      metric(s, count(s), "count");
    for (const char* s : {"atpg.run_s", "atpg.random_s", "atpg.three_phase_s", "atpg.merge_s"})
      metric(s, count(s) * scale, "s");
    metric("bdd.cache_hit_ratio",
           xatpg::safe_ratio(g_count["bdd.cache_hits"], g_count["bdd.cache_lookups"]), "ratio");
    metric("atpg.three_phase_yield",
           xatpg::safe_ratio(g_count["atpg.three_phase_found"],
                             g_count["atpg.three_phase_searched"]),
           "ratio");
    std::sort(pass_untraced.begin(), pass_untraced.end());
    std::sort(pass_traced.begin(), pass_traced.end());
    metric("trace.overhead_pct",
           pass_untraced.empty() ? 0.0
                                 : 100.0 * (percentile(pass_traced, 0.5) /
                                                percentile(pass_untraced, 0.5) - 1.0),
           "%");
    g_trace.write_chrome(trace_file);
  }
  m << '}';
  if (!error.empty()) std::cerr << "perfbench: " << error << '\n';
  std::cout << "{\"correct\":" << (error.empty() ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"passes\":" << passes << ",\"metrics\":" << m.str() << "}\n";
  return 0;
}

/// In-process reference for serve requests: one payload line per request,
/// from a direct Session run on the same circuit text and options.
int cmd_reference(const std::string& path) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    auto req = xatpg::serve::parse_request(line, xatpg::AtpgOptions{});
    if (!req) {
      std::cout << "error\n";
      continue;
    }
    // Text circuits run on their canonical .xnl, as docs/PROTOCOL.md
    // specifies for the daemon.
    using F = xatpg::serve::Request::CircuitFormat;
    auto s = req->format == F::Benchmark
                 ? xatpg::Session::from_benchmark(req->benchmark, req->style, req->options)
                 : xatpg::Session::from_xnl(
                       xatpg::write_xnl_string(req->format == F::Bench
                                                   ? xatpg::parse_bench_string(req->circuit_text)
                                                   : xatpg::parse_xnl_string(req->circuit_text)),
                       req->options);
    if (!s) {
      std::cout << "error\n";
      continue;
    }
    auto universe = s->input_stuck_faults();
    const auto out = s->output_stuck_faults();
    universe.insert(universe.end(), out.begin(), out.end());
    const auto r = s->run(universe);
    std::cout << (r ? xatpg::serve::serialize_result(s->circuit_name(), req->faults, *r)
                    : std::string("error"))
              << '\n';
  }
  return 0;
}

}  // namespace

/// Host-speed probe for serve-mix: for each count n read from stdin, runs n
/// reference units and prints the scale of their mean, kReferenceUnitS /
/// mean.
int cmd_calibrate() {
  std::cout.precision(10);
  for (int i = 0; i < 5; ++i) reference_unit();  // a new process's first units run cold
  for (std::size_t n; std::cin >> n && n > 0;) {
    std::vector<double> units;
    for (std::size_t i = 0; i < n; ++i) units.push_back(reference_unit());
    std::cout << kReferenceUnitS / mean_of(units) << std::endl;
  }
  return 0;
}

int main(int argc, char** argv) {
  const std::vector<std::string> a(argv + 1, argv + argc);
  try {
    if (a.size() == 4 && a[0] == "prepare") return cmd_prepare(a[1], std::stoull(a[2]), a[3]);
    if (a.size() == 5 && a[0] == "run") return cmd_run(a[1], a[2], std::stod(a[3]), a[4]);
    if (a.size() == 2 && a[0] == "reference") return cmd_reference(a[1]);
    if (a.size() == 1 && a[0] == "calibrate") return cmd_calibrate();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "usage: perfbench_runner prepare|run|reference|calibrate ...\n";
  return 2;
}
