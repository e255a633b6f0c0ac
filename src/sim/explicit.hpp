// Explicit-state race exploration under the unbounded gate-delay model.
//
// Enumerates *all* interleavings of excited-gate firings after an input
// pattern is applied to a stable state (the "competition between sensitized
// paths" of §2).  Exact but exponential, with the bound k of TCR_k on
// every trajectory.  It is the production kernel of FaultSimulator, which
// settles every consistent faulty state with it during exact fault-sim
// confirmation (most of the time of a pre-built netlist run goes here).  It
// is also the test oracle for the conservative ternary simulator and for the
// symbolic TCR_k/CSSG computation, and examples/fig1_races uses it to show
// non-confluence and oscillation on the paper's Figure 1 circuits.
//
// There is one kernel, SettlingKernel, on packed states: a state is a row of
// W = ceil(signals / 64) words, bit s of the row is signal s, and every
// frontier and result set is a flat open-addressing StateSet of such rows.
// The netlist is compiled once into per-gate fanin lists and per-gate
// excitation tables filled through eval_gate, so gate semantics keep their
// one definition; a gate wider than kMaxTableFanins evaluates through
// eval_gate on every call instead.  Each frontier row carries its excitation
// mask, so firing a gate re-evaluates only the gates that read it.
// explore_settling is the std::vector<bool> wrapper around the kernel.  The
// std::set implementation the kernel replaced is kept as
// oracle_explore_settling in tests/oracle.hpp, the reference it is tested
// against.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace xatpg {

/// Bit `s` (signal s) of a packed state row.
inline bool row_bit(const std::uint64_t* row, SignalId s) {
  return (row[s >> 6] >> (s & 63)) & 1;
}

inline void set_row_bit(std::uint64_t* row, SignalId s, bool value) {
  const std::uint64_t mask = 1ull << (s & 63);
  row[s >> 6] = value ? row[s >> 6] | mask : row[s >> 6] & ~mask;
}

/// A set of packed states, all rows of the same word count.  Open
/// addressing over whole rows; iteration (row(i), i < size()) is insertion
/// order.  Copyable: the rows and the table are plain vectors.
class StateSet {
 public:
  explicit StateSet(std::size_t words = 1) : words_(words) {}

  std::size_t words() const { return words_; }
  std::size_t size() const { return rows_.size() / words_; }
  bool empty() const { return rows_.empty(); }
  /// The i-th inserted row; valid until the next insert.
  const std::uint64_t* row(std::size_t i) const {
    return rows_.data() + i * words_;
  }

  /// Add `row` (words() words, not pointing into this set); true if new.
  bool insert(const std::uint64_t* row);
  /// Empty the set, keeping its capacity.
  void clear();
  /// The rows' bytes in sorted row order: equal sets give equal keys,
  /// whatever their insertion order.
  std::string canonical_key() const;

 private:
  std::uint64_t hash(const std::uint64_t* row) const;
  void rehash(std::size_t capacity);

  std::size_t words_;
  std::vector<std::uint64_t> rows_;    // size() rows of words_ words
  std::vector<std::uint32_t> slots_;   // 1 + row index; 0 marks an empty slot
};

/// A netlist compiled for explicit settling.  It owns its data (nothing
/// points back into the netlist), so it may outlive the netlist and be
/// copied; settle() reuses scratch frontiers and is not thread-safe.
class SettlingKernel {
 public:
  /// Gates with more fanins than this evaluate through eval_gate.
  static constexpr std::size_t kMaxTableFanins = 11;

  explicit SettlingKernel(const Netlist& netlist);

  /// Words per packed state.
  std::size_t words() const { return words_; }

  void pack(const std::vector<bool>& state, std::uint64_t* row) const;
  std::vector<bool> unpack(const std::uint64_t* row) const;

  struct Outcome {
    /// Some trajectory of `max_transitions` transitions ends unstable.
    bool exceeded_bound = false;
    /// Length of the longest transition sequence explored (capped).
    std::size_t longest_path = 0;
  };

  /// Explore every interleaving from `start` with at most `max_transitions`
  /// gate transitions per trajectory, adding each stable state reached to
  /// `stable`.  When `visited` is given, every state of every level is
  /// added to it too (statistics only; the hot path passes none).
  Outcome settle(const std::uint64_t* start, std::size_t max_transitions,
                 StateSet& stable, StateSet* visited = nullptr);

 private:
  struct CompiledGate {
    SignalId out;
    std::uint32_t first_fanin;  // into fanins_
    std::uint32_t num_fanins;
    /// Offset into tables_; for a gate wider than kMaxTableFanins, the
    /// index into wide_ instead.
    std::uint32_t table;
  };

  bool excited(const CompiledGate& gate, const std::uint64_t* row) const;
  /// The eval_gate fallback of excited() for gates without a table.
  bool excited_wide(const CompiledGate& gate, const std::uint64_t* row) const;

  std::size_t num_signals_;
  std::size_t words_;
  std::vector<CompiledGate> gates_;  // every non-input gate, by signal id
  std::vector<SignalId> fanins_;
  /// Bit (fanin values, own value) of a gate's table: its target differs
  /// from its own value, i.e. the gate is excited.
  std::vector<std::uint64_t> tables_;
  std::vector<Gate> wide_;
  /// readers_[s]: the gates (indices into gates_) whose excitation depends
  /// on signal s, i.e. the gate driving s and every gate reading it.
  std::vector<std::vector<std::uint32_t>> readers_;
  // Scratch frontiers.  Row i of a level has its excitation mask (bit s:
  // gate s is excited) at words [i * words_, (i + 1) * words_) of the
  // level's mask vector.
  StateSet level_, next_;
  std::vector<std::uint64_t> level_masks_, next_masks_;
  std::vector<std::uint64_t> succ_;
};

/// Outcome of exhaustive exploration of one (stable state, input pattern).
struct ExploreResult {
  /// All stable states reachable within the transition bound.
  std::set<std::vector<bool>> stable_states;
  /// True if some trajectory of length `max_transitions` ends unstable
  /// (oscillation, or a settle time exceeding the test cycle).
  bool exceeded_bound = false;
  /// Number of distinct states visited over all levels.
  std::size_t states_visited = 0;
  /// Length of the longest transition sequence explored (capped).
  std::size_t longest_path = 0;

  /// The pattern is a valid synchronous test vector (§4): exactly one
  /// stable settling state, and every trajectory settles within the bound.
  bool confluent() const {
    return stable_states.size() == 1 && !exceeded_bound;
  }
};

/// Exhaustively explore the settling behavior after flipping the primary
/// inputs of `stable_from` to `input_values`, with at most `max_transitions`
/// gate transitions per trajectory (the k of TCR_k).  Compiles the netlist
/// on every call; repeated settling on one circuit should hold a
/// SettlingKernel instead.
ExploreResult explore_settling(const Netlist& netlist,
                               const std::vector<bool>& stable_from,
                               const std::vector<bool>& input_values,
                               std::size_t max_transitions);

/// Enumerate every stable state of the netlist reachable in test mode from
/// `reset_state` using arbitrary input patterns (explicit TCSG stable-state
/// reachability; oracle for the symbolic traversal).  `max_transitions`
/// bounds each settling; states whose settling exceeds the bound or races
/// still contribute all their reachable stable states, mirroring the TCSG
/// definition.
std::set<std::vector<bool>> explicit_stable_reachable(
    const Netlist& netlist, const std::vector<bool>& reset_state,
    std::size_t max_transitions);

}  // namespace xatpg
