#include "checker.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <unordered_set>

namespace perfbench {
namespace {

constexpr std::size_t kMaxSignals = 256;
constexpr std::size_t kMaxCandidates = 1u << 14;

std::vector<std::string> split(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  for (std::string tok; in >> tok;) out.push_back(tok);
  return out;
}

std::string strip_comment(std::string line) {
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.resize(hash);
  return line;
}

// --- circuit model ------------------------------------------------------------

enum class Kind { Input, Buf, Not, And, Or, Nand, Nor, Xor, Xnor, Maj, C, Gc, Sop };

struct Gate {
  Kind kind = Kind::Input;
  std::vector<int> in;
  std::vector<std::string> set, reset;  ///< cubes, one char per fanin
};

struct Circuit {
  std::vector<std::string> names;
  std::map<std::string, int> id;
  std::vector<Gate> gates;
  std::vector<int> inputs, outputs;

  int intern(const std::string& name) {
    const auto it = id.find(name);
    if (it != id.end()) return it->second;
    id.emplace(name, static_cast<int>(names.size()));
    names.push_back(name);
    gates.emplace_back();
    return static_cast<int>(names.size()) - 1;
  }
};

Kind kind_of(std::string token) {
  std::string base;
  for (const char c : token) {
    if (std::isdigit(static_cast<unsigned char>(c))) break;
    base += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  static const std::map<std::string, Kind> kinds{
      {"BUF", Kind::Buf},   {"BUFF", Kind::Buf},  {"NOT", Kind::Not},
      {"INV", Kind::Not},   {"AND", Kind::And},   {"OR", Kind::Or},
      {"NAND", Kind::Nand}, {"NOR", Kind::Nor},   {"XOR", Kind::Xor},
      {"XNOR", Kind::Xnor}, {"MAJ", Kind::Maj},   {"C", Kind::C},
      {"CELEM", Kind::C}};
  const auto it = kinds.find(base);
  if (it == kinds.end()) throw std::runtime_error("unknown gate " + token);
  return it->second;
}

std::vector<std::string> fields(const std::string& rest) {
  std::vector<std::string> out(1);
  for (const char c : rest) {
    if (c == ':') out.emplace_back();
    else out.back() += c;
  }
  return out;
}

std::vector<std::string> cubes(const std::string& text) {
  std::string spaced = text;
  std::replace(spaced.begin(), spaced.end(), ',', ' ');
  return split(spaced);
}

Circuit parse_xnl(const std::string& text) {
  Circuit c;
  std::istringstream in(text);
  for (std::string raw; std::getline(in, raw);) {
    const std::string line = strip_comment(raw);
    const auto toks = split(line);
    if (toks.empty()) continue;
    const std::string& d = toks[0];
    if (d == ".inputs") {
      for (std::size_t i = 1; i < toks.size(); ++i) {
        const int s = c.intern(toks[i]);
        c.gates[s].kind = Kind::Input;
        c.inputs.push_back(s);
      }
    } else if (d == ".outputs") {
      for (std::size_t i = 1; i < toks.size(); ++i)
        c.outputs.push_back(c.intern(toks[i]));
    } else if (d == ".gate") {
      const int s = c.intern(toks.at(2));
      Gate g;
      g.kind = kind_of(toks[1]);
      for (std::size_t i = 3; i < toks.size(); ++i) g.in.push_back(c.intern(toks[i]));
      c.gates[s] = g;
    } else if (d == ".sop" || d == ".gc") {
      const auto f = fields(line.substr(line.find(d) + d.size()));
      const int s = c.intern(split(f.at(0)).at(0));
      Gate g;
      g.kind = d == ".sop" ? Kind::Sop : Kind::Gc;
      for (const auto& name : split(f.at(1))) g.in.push_back(c.intern(name));
      g.set = cubes(f.at(2));
      if (d == ".gc") g.reset = cubes(f.at(3));
      c.gates[s] = g;
    }
  }
  if (c.names.size() > kMaxSignals)
    throw std::runtime_error("circuit too large for the checker");
  return c;
}

// --- explicit interleaving simulation ---------------------------------------

struct State {
  std::array<std::uint64_t, kMaxSignals / 64> w{};
  bool get(int s) const { return (w[s >> 6] >> (s & 63)) & 1u; }
  void set(int s, bool v) {
    const std::uint64_t bit = std::uint64_t{1} << (s & 63);
    if (v) w[s >> 6] |= bit;
    else w[s >> 6] &= ~bit;
  }
  bool operator==(const State&) const = default;
};

struct StateHash {
  std::size_t operator()(const State& s) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const std::uint64_t x : s.w) h = (h ^ x) * 0xff51afd7ed558ccdULL;
    return static_cast<std::size_t>(h ^ (h >> 33));
  }
};
using StateSet = std::unordered_set<State, StateHash>;

/// A stuck-at fault resolved to checker ids; `signal` = -1 for none.
struct Injection {
  int signal = -1;  ///< output fault: this signal is a constant
  int gate = -1;    ///< pin fault: pin `pin` of this gate reads `stuck`
  std::size_t pin = 0;
  bool stuck = false;
};

bool cover_value(const std::vector<std::string>& cover,
                 const std::vector<bool>& v) {
  for (const std::string& cube : cover) {
    bool hit = true;
    for (std::size_t i = 0; i < cube.size() && hit; ++i)
      if (cube[i] != '-' && (cube[i] == '1') != v[i]) hit = false;
    if (hit) return true;
  }
  return false;
}

bool target(const Circuit& c, const Injection& f, int s, const State& st) {
  if (s == f.signal) return f.stuck;
  const Gate& g = c.gates[s];
  std::vector<bool> v(g.in.size());
  for (std::size_t i = 0; i < g.in.size(); ++i)
    v[i] = (s == f.gate && i == f.pin) ? f.stuck : st.get(g.in[i]);
  const bool own = st.get(s);
  const auto all = [&] { return std::all_of(v.begin(), v.end(), [](bool b) { return b; }); };
  const auto any = [&] { return std::any_of(v.begin(), v.end(), [](bool b) { return b; }); };
  const auto parity = [&] { return std::count(v.begin(), v.end(), true) % 2 == 1; };
  switch (g.kind) {
    case Kind::Input: return own;
    case Kind::Buf: return v.at(0);
    case Kind::Not: return !v.at(0);
    case Kind::And: return all();
    case Kind::Nand: return !all();
    case Kind::Or: return any();
    case Kind::Nor: return !any();
    case Kind::Xor: return parity();
    case Kind::Xnor: return !parity();
    case Kind::Maj: return std::count(v.begin(), v.end(), true) >= 2;
    case Kind::C: return all() || (own && any());
    case Kind::Gc: return cover_value(g.set, v) || (own && !cover_value(g.reset, v));
    case Kind::Sop: return cover_value(g.set, v);
  }
  return own;
}

std::vector<int> excited(const Circuit& c, const Injection& f, const State& st) {
  std::vector<int> out;
  for (int s = 0; s < static_cast<int>(c.names.size()); ++s) {
    if (c.gates[s].kind == Kind::Input && s != f.signal) continue;
    if (target(c, f, s, st) != st.get(s)) out.push_back(s);
  }
  return out;
}

struct Settle {
  StateSet stable;
  bool exceeded = false;
};

/// Every interleaving of gate firings after `start`, at most k transitions
/// per trajectory.  Levels are deduplicated per depth, so a state reached at
/// two depths is explored from both.
Settle settle(const Circuit& c, const Injection& f, const State& start,
              std::size_t k) {
  Settle out;
  StateSet level{start};
  for (std::size_t depth = 0; !level.empty(); ++depth) {
    StateSet next;
    for (const State& st : level) {
      const auto ex = excited(c, f, st);
      if (ex.empty()) {
        out.stable.insert(st);
        continue;
      }
      if (depth == k) {
        out.exceeded = true;
        continue;
      }
      for (const int g : ex) {
        State succ = st;
        succ.set(g, !succ.get(g));
        next.insert(succ);
      }
    }
    if (depth == k) break;
    level = std::move(next);
  }
  return out;
}

State apply(const Circuit& c, const Injection& f, State st,
            const std::vector<bool>& vec) {
  for (std::size_t i = 0; i < c.inputs.size(); ++i)
    if (c.inputs[i] != f.signal) st.set(c.inputs[i], vec[i]);
  return st;
}

bool same_outputs(const Circuit& c, const State& a, const State& b) {
  for (const int po : c.outputs)
    if (a.get(po) != b.get(po)) return false;
  return true;
}

std::string bits(const std::vector<bool>& v) {
  std::string s;
  for (const bool b : v) s += b ? '1' : '0';
  return s;
}

/// Parse a test program into per-sequence lists of (vector, response).
std::vector<std::vector<std::pair<std::string, std::string>>> parse_program(
    const std::string& text) {
  std::vector<std::vector<std::pair<std::string, std::string>>> out;
  std::istringstream in(text);
  for (std::string raw; std::getline(in, raw);) {
    const auto toks = split(strip_comment(raw));
    if (toks.empty()) continue;
    if (toks[0] == ".sequence") out.emplace_back();
    else if (toks.size() == 3 && toks[1] == "/" && !out.empty())
      out.back().emplace_back(toks[0], toks[2]);
  }
  return out;
}

std::string check_universe(const Circuit& c, const State& reset,
                           const JobOutput& job, std::size_t u) {
  const auto& seqs = job.sequences[u];
  const auto program = parse_program(job.programs[u]);
  if (program.size() != seqs.size())
    return "test program lists " + std::to_string(program.size()) +
           " sequences, result has " + std::to_string(seqs.size());
  // Good circuit: every vector changes an input and settles confluently.
  std::vector<std::vector<State>> good(seqs.size());
  for (std::size_t s = 0; s < seqs.size(); ++s) {
    State st = reset;
    if (program[s].size() != seqs[s].size())
      return "test program sequence " + std::to_string(s) + " length differs";
    for (std::size_t t = 0; t < seqs[s].size(); ++t) {
      const auto& vec = seqs[s][t];
      if (vec.size() != c.inputs.size()) return "vector width differs";
      bool changes = false;
      for (std::size_t i = 0; i < vec.size(); ++i)
        changes |= st.get(c.inputs[i]) != vec[i];
      if (!changes)
        return "sequence " + std::to_string(s) + " vector " +
               std::to_string(t) + " changes no input";
      const Settle r = settle(c, Injection{}, apply(c, Injection{}, st, vec), job.k);
      if (r.exceeded || r.stable.size() != 1)
        return "sequence " + std::to_string(s) + " vector " +
               std::to_string(t) + " does not settle confluently";
      st = *r.stable.begin();
      good[s].push_back(st);
      std::string po;
      for (const int o : c.outputs) po += st.get(o) ? '1' : '0';
      if (program[s][t].first != bits(vec) || program[s][t].second != po)
        return "test program line differs at sequence " + std::to_string(s);
    }
  }
  // Every covered fault: all faulty executions mismatch some strobe.
  for (const NamedFault& nf : job.universes[u]) {
    if (nf.sequence < 0) continue;
    if (static_cast<std::size_t>(nf.sequence) >= seqs.size())
      return "fault covered by a missing sequence";
    const auto it = c.id.find(nf.gate);
    if (it == c.id.end()) return "fault names unknown signal " + nf.gate;
    Injection f;
    f.stuck = nf.stuck;
    if (nf.pin_fault) {
      f.gate = it->second;
      f.pin = nf.pin;
    } else {
      f.signal = it->second;
    }
    State start = reset;
    if (!nf.pin_fault) start.set(f.signal, nf.stuck);
    Settle init = settle(c, f, start, job.k);
    if (init.exceeded) return "faulty circuit does not reset: " + nf.gate;
    StateSet cands = std::move(init.stable);
    const auto& seq = seqs[nf.sequence];
    for (std::size_t t = 0; t < seq.size() && !cands.empty(); ++t) {
      StateSet next;
      for (const State& cand : cands) {
        const Settle r = settle(c, f, apply(c, f, cand, seq[t]), job.k);
        if (r.exceeded) return "faulty trajectory does not settle: " + nf.gate;
        for (const State& o : r.stable)
          if (same_outputs(c, o, good[nf.sequence][t])) next.insert(o);
      }
      if (next.size() > kMaxCandidates) return "too many faulty candidates";
      cands = std::move(next);
    }
    if (!cands.empty())
      return "fault on " + nf.gate + " reported covered by sequence " +
             std::to_string(nf.sequence) + " but some execution escapes";
  }
  return {};
}

}  // namespace

TextCounts count_netlist_text(const std::string& text, bool bench_format) {
  TextCounts n;
  std::istringstream in(text);
  for (std::string raw; std::getline(in, raw);) {
    std::string line = strip_comment(raw);
    if (bench_format) {
      const auto eq = line.find('=');
      if (eq != std::string::npos) {
        ++n.signals;
        const std::string args = line.substr(line.find('(') + 1);
        n.pins += std::count(args.begin(), args.end(), ',') + 1;
      } else if (line.find("INPUT(") != std::string::npos) {
        ++n.signals;
      }
      continue;
    }
    const auto toks = split(line);
    if (toks.empty()) continue;
    if (toks[0] == ".inputs") {
      n.signals += toks.size() - 1;
    } else if (toks[0] == ".gate") {
      ++n.signals;
      n.pins += toks.size() - 3;
    } else if (toks[0] == ".sop" || toks[0] == ".gc") {
      ++n.signals;
      n.pins += split(fields(line).at(1)).size();
    }
  }
  return n;
}

std::string check_job(const JobOutput& job) {
  try {
    const Circuit c = parse_xnl(job.xnl);
    if (job.universes.size() != 2 || job.sequences.size() != 2 ||
        job.programs.size() != 2)
      return "job must export an output and an input universe";
    if (job.universes[0].size() != 2 * job.counts.signals)
      return "output universe has " + std::to_string(job.universes[0].size()) +
             " faults, text has " + std::to_string(job.counts.signals) +
             " signals";
    if (job.universes[1].size() != 2 * job.counts.pins)
      return "input universe has " + std::to_string(job.universes[1].size()) +
             " faults, text has " + std::to_string(job.counts.pins) + " pins";
    State reset;
    for (const std::string& name : job.reset_high) reset.set(c.id.at(name), true);
    if (!excited(c, Injection{}, reset).empty()) return "reset state is not stable";
    for (std::size_t u = 0; u < 2; ++u)
      if (std::string err = check_universe(c, reset, job, u); !err.empty())
        return (u == 0 ? "output universe: " : "input universe: ") + err;
  } catch (const std::exception& e) {
    return std::string("checker could not read the job: ") + e.what();
  }
  return {};
}

std::string self_test(const JobOutput& job) {
  // A vector flipped back to the values before it changes no input.
  for (std::size_t u = 0; u < 2; ++u) {
    for (std::size_t s = 0; s < job.sequences[u].size(); ++s) {
      if (job.sequences[u][s].size() < 2) continue;
      JobOutput bad = job;
      bad.sequences[u][s][1] = bad.sequences[u][s][0];
      if (check_job(bad).empty()) return "a flipped vector passed the check";
      u = 2;
      break;
    }
  }
  // A fault claimed covered by an empty sequence, and an uncovered fault
  // claimed covered by sequence 0.
  for (std::size_t u = 0; u < 2; ++u) {
    JobOutput empty = job;
    empty.sequences[u].emplace_back();
    empty.programs[u] += ".sequence x\n";
    empty.universes[u][0].sequence =
        static_cast<int>(empty.sequences[u].size()) - 1;
    if (check_job(empty).empty())
      return "a fault claimed covered by an empty sequence passed the check";
    if (job.sequences[u].empty()) continue;
    for (std::size_t i = 0; i < job.universes[u].size(); ++i) {
      if (job.universes[u][i].sequence >= 0) continue;
      JobOutput bad = job;
      bad.universes[u][i].sequence = 0;
      if (check_job(bad).empty())
        return "an uncovered fault claimed covered passed the check";
      break;
    }
  }
  return {};
}

}  // namespace perfbench
