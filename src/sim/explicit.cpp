#include "sim/explicit.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/check.hpp"

namespace xatpg {

// --- StateSet ----------------------------------------------------------------

std::uint64_t StateSet::hash(const std::uint64_t* row) const {
  // The murmur3 finalizer over each word, chained.
  std::uint64_t h = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    h ^= row[w];
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
  }
  return h;
}

bool StateSet::insert(const std::uint64_t* row) {
  // Load factor at most 1/2; linear probing.
  if (2 * (size() + 1) > slots_.size())
    rehash(std::max<std::size_t>(16, 2 * slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = hash(row) & mask;; s = (s + 1) & mask) {
    const std::uint32_t entry = slots_[s];
    if (entry == 0) {
      slots_[s] = static_cast<std::uint32_t>(size() + 1);
      rows_.insert(rows_.end(), row, row + words_);
      return true;
    }
    if (std::equal(row, row + words_, this->row(entry - 1))) return false;
  }
}

void StateSet::clear() {
  rows_.clear();
  std::fill(slots_.begin(), slots_.end(), 0u);
}

std::string StateSet::canonical_key() const {
  std::vector<const std::uint64_t*> rows(size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = row(i);
  const std::size_t words = words_;
  std::sort(rows.begin(), rows.end(),
            [words](const std::uint64_t* a, const std::uint64_t* b) {
              return std::lexicographical_compare(a, a + words, b, b + words);
            });
  const std::size_t row_bytes = words * sizeof(std::uint64_t);
  std::string key(rows.size() * row_bytes, '\0');
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::memcpy(key.data() + i * row_bytes, rows[i], row_bytes);
  return key;
}

void StateSet::rehash(std::size_t capacity) {
  XATPG_CHECK_MSG(capacity / 2 <= UINT32_MAX, "state set too large");
  slots_.assign(capacity, 0u);
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < size(); ++i) {
    std::size_t s = hash(row(i)) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<std::uint32_t>(i + 1);
  }
}

// --- SettlingKernel ----------------------------------------------------------

SettlingKernel::SettlingKernel(const Netlist& netlist)
    : num_signals_(netlist.num_signals()),
      words_(std::max<std::size_t>(1, (num_signals_ + 63) / 64)),
      level_(words_),
      next_(words_),
      succ_(words_) {
  std::vector<bool> fanin_vals;
  for (SignalId s = 0; s < num_signals_; ++s) {
    // Primary inputs are never excited (their target is their own value).
    if (netlist.is_input(s)) continue;
    const Gate& gate = netlist.gate(s);
    const auto n = static_cast<std::uint32_t>(gate.fanins.size());
    CompiledGate compiled{s, static_cast<std::uint32_t>(fanins_.size()), n, 0};
    fanins_.insert(fanins_.end(), gate.fanins.begin(), gate.fanins.end());
    if (n > kMaxTableFanins) {
      compiled.table = static_cast<std::uint32_t>(wide_.size());
      wide_.push_back(gate);
    } else {
      compiled.table = static_cast<std::uint32_t>(tables_.size());
      const std::size_t entries = std::size_t{1} << (n + 1);
      tables_.resize(tables_.size() + (entries + 63) / 64, 0);
      fanin_vals.assign(n, false);
      for (std::size_t idx = 0; idx < entries; ++idx) {
        for (std::uint32_t i = 0; i < n; ++i) fanin_vals[i] = (idx >> i) & 1;
        const bool own = (idx >> n) & 1;
        if (eval_gate(gate, fanin_vals, own, BoolOps{}) != own)
          tables_[compiled.table + idx / 64] |= 1ull << (idx % 64);
      }
    }
    gates_.push_back(compiled);
  }
  readers_.resize(num_signals_);
  for (std::uint32_t g = 0; g < gates_.size(); ++g) {
    readers_[gates_[g].out].push_back(g);
    for (const SignalId f : netlist.gate(gates_[g].out).fanins)
      if (readers_[f].empty() || readers_[f].back() != g)
        readers_[f].push_back(g);
  }
}

void SettlingKernel::pack(const std::vector<bool>& state,
                          std::uint64_t* row) const {
  XATPG_CHECK(state.size() == num_signals_);
  std::fill(row, row + words_, 0ull);
  for (SignalId s = 0; s < num_signals_; ++s)
    if (state[s]) set_row_bit(row, s, true);
}

std::vector<bool> SettlingKernel::unpack(const std::uint64_t* row) const {
  std::vector<bool> state(num_signals_);
  for (SignalId s = 0; s < num_signals_; ++s) state[s] = row_bit(row, s);
  return state;
}

bool SettlingKernel::excited_wide(const CompiledGate& gate,
                                  const std::uint64_t* row) const {
  const SignalId* fanins = fanins_.data() + gate.first_fanin;
  std::vector<bool> fanin_vals(gate.num_fanins);
  for (std::uint32_t i = 0; i < gate.num_fanins; ++i)
    fanin_vals[i] = row_bit(row, fanins[i]);
  const bool own = row_bit(row, gate.out);
  return eval_gate(wide_[gate.table], fanin_vals, own, BoolOps{}) != own;
}

inline bool SettlingKernel::excited(const CompiledGate& gate,
                                    const std::uint64_t* row) const {
  if (gate.num_fanins > kMaxTableFanins) return excited_wide(gate, row);
  const SignalId* fanins = fanins_.data() + gate.first_fanin;
  std::size_t idx = std::size_t{row_bit(row, gate.out)} << gate.num_fanins;
  for (std::uint32_t i = 0; i < gate.num_fanins; ++i)
    idx |= std::size_t{row_bit(row, fanins[i])} << i;
  return (tables_[gate.table + idx / 64] >> (idx % 64)) & 1;
}

SettlingKernel::Outcome SettlingKernel::settle(const std::uint64_t* start,
                                               std::size_t max_transitions,
                                               StateSet& stable,
                                               StateSet* visited) {
  XATPG_CHECK(stable.words() == words_);
  XATPG_CHECK(!visited || visited->words() == words_);
  // Level-synchronous exploration: level d holds the set of states reachable
  // in exactly d gate transitions after the input flip; stable states are
  // recorded and not expanded (they self-loop in R_delta).  This matches the
  // TCR_k semantics exactly: the pattern is valid iff one stable state is
  // reachable and no trajectory is still unstable after max_transitions
  // steps.
  Outcome outcome;
  level_.clear();
  level_.insert(start);
  level_masks_.assign(words_, 0);
  for (const CompiledGate& gate : gates_)
    if (excited(gate, start)) set_row_bit(level_masks_.data(), gate.out, true);
  for (std::size_t depth = 0; !level_.empty(); ++depth) {
    const bool at_bound = depth == max_transitions;
    next_.clear();
    next_masks_.clear();
    for (std::size_t i = 0; i < level_.size(); ++i) {
      const std::uint64_t* state = level_.row(i);
      const std::uint64_t* mask = level_masks_.data() + i * words_;
      if (visited) visited->insert(state);
      if (std::all_of(mask, mask + words_,
                      [](std::uint64_t w) { return w == 0; })) {
        stable.insert(state);
        continue;
      }
      if (at_bound) {
        // An unstable state survives at the transition bound: oscillation
        // or a settle time longer than the test cycle.
        outcome.exceeded_bound = true;
        continue;
      }
      // Fire each excited gate.  Only the gates that read the fired signal
      // (and its own gate) can change excitation in the successor.
      for (std::size_t w = 0; w < words_; ++w)
        for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
          const auto s =
              static_cast<SignalId>(w * 64 + std::countr_zero(bits));
          std::copy(state, state + words_, succ_.begin());
          succ_[w] ^= bits & -bits;
          if (!next_.insert(succ_.data())) continue;
          next_masks_.insert(next_masks_.end(), mask, mask + words_);
          std::uint64_t* succ_mask = &next_masks_[next_masks_.size() - words_];
          for (const std::uint32_t g : readers_[s])
            set_row_bit(succ_mask, gates_[g].out,
                        excited(gates_[g], succ_.data()));
        }
    }
    if (at_bound) break;
    outcome.longest_path = depth;
    std::swap(level_, next_);
    std::swap(level_masks_, next_masks_);
  }
  return outcome;
}

// --- std::vector<bool> wrappers ----------------------------------------------

namespace {

std::set<std::vector<bool>> unpack_all(const SettlingKernel& kernel,
                                       const StateSet& states) {
  std::set<std::vector<bool>> out;
  for (std::size_t i = 0; i < states.size(); ++i)
    out.insert(kernel.unpack(states.row(i)));
  return out;
}

}  // namespace

ExploreResult explore_settling(const Netlist& netlist,
                               const std::vector<bool>& stable_from,
                               const std::vector<bool>& input_values,
                               std::size_t max_transitions) {
  XATPG_CHECK(stable_from.size() == netlist.num_signals());
  XATPG_CHECK(input_values.size() == netlist.inputs().size());

  SettlingKernel kernel(netlist);
  std::vector<bool> start = stable_from;
  for (std::size_t i = 0; i < input_values.size(); ++i)
    start[netlist.inputs()[i]] = input_values[i];
  std::vector<std::uint64_t> row(kernel.words());
  kernel.pack(start, row.data());

  StateSet stable(kernel.words());
  StateSet visited(kernel.words());
  const SettlingKernel::Outcome outcome =
      kernel.settle(row.data(), max_transitions, stable, &visited);
  ExploreResult result;
  result.stable_states = unpack_all(kernel, stable);
  result.exceeded_bound = outcome.exceeded_bound;
  result.states_visited = visited.size();
  result.longest_path = outcome.longest_path;
  return result;
}

std::set<std::vector<bool>> explicit_stable_reachable(
    const Netlist& netlist, const std::vector<bool>& reset_state,
    std::size_t max_transitions) {
  XATPG_CHECK_MSG(netlist.is_stable_state(reset_state),
                  "reset state must be stable");
  const std::size_t num_inputs = netlist.inputs().size();
  XATPG_CHECK_MSG(num_inputs <= 16, "too many inputs for explicit exploration");

  SettlingKernel kernel(netlist);
  std::vector<std::uint64_t> state(kernel.words());
  kernel.pack(reset_state, state.data());
  // The set doubles as the worklist: settle() appends every new stable
  // state, and the scan below reaches it later.
  StateSet stable_seen(kernel.words());
  stable_seen.insert(state.data());
  std::vector<std::uint64_t> start(kernel.words());
  for (std::size_t next = 0; next < stable_seen.size(); ++next) {
    std::copy_n(stable_seen.row(next), kernel.words(), state.begin());
    for (std::uint64_t pattern = 0; pattern < (1ull << num_inputs); ++pattern) {
      start = state;
      bool same = true;
      for (std::size_t i = 0; i < num_inputs; ++i) {
        const SignalId in = netlist.inputs()[i];
        const bool value = (pattern >> i) & 1;
        same = same && value == row_bit(state.data(), in);
        set_row_bit(start.data(), in, value);
      }
      if (same) continue;  // R_I requires at least one input to change
      kernel.settle(start.data(), max_transitions, stable_seen);
    }
  }
  return unpack_all(kernel, stable_seen);
}

}  // namespace xatpg
