#include "atpg/engine.hpp"

#include <atomic>
#include <cstring>
#include <deque>
#include <exception>
#include <ostream>
#include <thread>
#include <unordered_set>

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "util/work_queue.hpp"

namespace xatpg {

namespace {

std::size_t resolved_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

bool cancel_fired(const CancelToken* cancel) {
  return cancel != nullptr && cancel->cancelled();
}

}  // namespace

std::size_t AtpgEngine::FaultHash::operator()(const Fault& fault) const {
  // splitmix-style mix of the four fields; quality matters little (the map
  // holds at most a few thousand faults) but determinism does not — this is
  // never iterated, only probed.
  std::uint64_t h = static_cast<std::uint64_t>(fault.gate);
  h = (h << 20) ^ (static_cast<std::uint64_t>(fault.pin) << 2);
  h ^= static_cast<std::uint64_t>(fault.site == Fault::Site::GatePin) << 1;
  h ^= static_cast<std::uint64_t>(fault.stuck_value);
  h *= 0x9e3779b97f4a7c15ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

/// Published by each worker at fault granularity; read by the run's calling
/// thread to stream per-shard BDD statistics while generation is running.
///
/// Publication protocol (lock-free; outside the scope of the mutex-based
/// thread-safety annotations in util/annotations.hpp, verified by the TSan
/// CI job instead): every field is an independent monotonic counter written
/// by exactly one worker with relaxed stores and read by the progress
/// thread with relaxed loads.  Readers may observe a torn *set* of counters
/// (e.g. done advanced but cache_hits not yet) — each individual value is
/// still a real point-in-time value, which is all the streaming progress
/// display needs.  Nothing downstream derives control flow from a
/// cross-field invariant.
struct AtpgEngine::ShardCounters {
  std::atomic<std::size_t> live{0};
  std::atomic<std::size_t> peak{0};
  std::atomic<std::size_t> reorders{0};
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> steals{0};
  std::atomic<std::size_t> cache_lookups{0};
  std::atomic<std::size_t> cache_hits{0};
  /// Unique-table load factor, published as its raw bit pattern so the
  /// counter stays a lock-free word on every platform.
  std::atomic<std::uint64_t> unique_load_bits{0};
};

namespace {

/// Snapshot one manager's BDD accounting into the public stats struct —
/// only safe on the thread that owns the manager (the worker publishing its
/// own shard, or the main thread reading its own context / idle shards).
ShardBddStats snapshot_shard(std::size_t shard, const BddManager& mgr,
                             std::size_t faults_done,
                             std::size_t blocks_stolen = 0) {
  ShardBddStats stats;
  stats.shard = shard;
  // For a delta manager allocated_nodes()/peak_nodes() cover the private
  // delta arena only; the resident totals add the frozen shared base once.
  // A monolithic manager has base_nodes() == 0, so the old semantics hold.
  stats.base_nodes = mgr.base_nodes();
  stats.delta_peak = mgr.peak_nodes();
  stats.live_nodes = mgr.base_nodes() + mgr.allocated_nodes();
  stats.peak_nodes = mgr.base_nodes() + mgr.peak_nodes();
  stats.reorders = mgr.reorder_count();
  stats.faults_done = faults_done;
  stats.cache_lookups = mgr.cache_lookups();
  stats.cache_hits = mgr.cache_hits();
  stats.unique_load = mgr.unique_load();
  stats.blocks_stolen = blocks_stolen;
  return stats;
}

std::uint64_t double_to_bits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof value);
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

double bits_to_double(std::uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

}  // namespace

AtpgEngine::AtpgEngine(const Netlist& netlist,
                       const std::vector<bool>& reset_state,
                       const AtpgOptions& options)
    : netlist_(&netlist), reset_state_(reset_state), options_(options) {
  const Expected<void> valid = options_.validate();
  XATPG_CHECK_MSG(valid.has_value(),
                  "invalid AtpgOptions — " << valid.error().message);
  cssg_ = build_shard();
  graph_ = cssg_->extract_explicit();
  const auto reset_id = graph_.find(reset_state);
  XATPG_CHECK(reset_id.has_value());
  reset_id_ = *reset_id;
  // Publication point: freeze the substrate before any worker thread can
  // exist, so thread creation's happens-before edge covers the whole frozen
  // arena.  Everything after this runs on delta views.
  cssg_->freeze();
  base_node_count_ = cssg_->encoding().mgr().allocated_nodes();
  base_reorder_count_ = cssg_->encoding().mgr().reorder_count();
  shard0_ = build_delta();
}

std::unique_ptr<Cssg> AtpgEngine::build_shard() const {
  CssgOptions cssg_options;
  cssg_options.k = options_.k;
  cssg_options.order = options_.order;
  cssg_options.reorder = options_.reorder;
  return std::make_unique<Cssg>(
      *netlist_, std::vector<std::vector<bool>>{reset_state_}, cssg_options);
}

std::unique_ptr<Cssg> AtpgEngine::build_delta() const {
  return std::make_unique<Cssg>(*cssg_, BddManager::Delta{});
}

std::optional<std::vector<std::uint32_t>> AtpgEngine::follow(
    const TestSequence& seq) const {
  std::vector<std::uint32_t> path{reset_id_};
  for (const auto& vec : seq.vectors) {
    bool advanced = false;
    for (const auto& edge : graph_.edges[path.back()]) {
      if (edge.pattern == vec) {
        path.push_back(edge.to);
        advanced = true;
        break;
      }
    }
    if (!advanced) return std::nullopt;
  }
  return path;
}

// ---------------------------------------------------------------------------
// 3-phase ATPG
// ---------------------------------------------------------------------------

AtpgEngine::DiffResult AtpgEngine::differentiate(
    const Fault& fault, const TestSequence& prefix) const {
  DiffResult result;

  // Replay the (justification) prefix on the faulty circuit.
  FaultSimulator sim(*netlist_, fault, reset_state_, options_.sim);
  if (sim.status() == DetectStatus::GaveUp) {
    result.truncated = true;  // candidate cap blew at reset — nothing proven
    return result;
  }
  const auto path = follow(prefix);
  if (!path) return result;
  TestSequence applied;
  for (std::size_t i = 0; i < prefix.vectors.size(); ++i) {
    applied.vectors.push_back(prefix.vectors[i]);
    const DetectStatus status =
        sim.step(prefix.vectors[i], graph_.states[(*path)[i + 1]]);
    if (status == DetectStatus::Detected) {
      // Corruption surfaced during justification — in all terminal states,
      // so the shortened sequence is already a test (paper, Fig. 3a).
      result.found = true;
      result.sequence = applied;
      return result;
    }
    if (status == DetectStatus::GaveUp) {
      result.truncated = true;
      return result;
    }
  }

  // Phase 3: breadth-first search over valid vectors for the shortest
  // extension that makes every faulty execution observable.
  struct Node {
    std::uint32_t good_id;
    FaultSimulator::Snapshot sim_state;
    std::vector<std::vector<bool>> suffix;
  };
  std::deque<Node> queue;
  std::unordered_set<std::string> visited;
  const auto key_of = [](std::uint32_t good_id, const std::string& cand_key) {
    return std::to_string(good_id) + "#" + cand_key;
  };
  queue.push_back(Node{path->back(), sim.snapshot(), {}});
  visited.insert(key_of(path->back(), sim.candidates_key()));

  // The per-fault budget is the DETERMINISTIC pair diff_depth /
  // diff_node_cap — both depend only on (circuit, options, fault), never on
  // machine speed, load, or scheduling, which is what makes outcomes
  // byte-identical across hosts and thread counts.  per_fault_seconds > 0
  // additionally arms a wall-clock fallback for exploratory runs with the
  // deterministic caps raised; tripping it is loudly logged because that
  // run's results are machine-dependent.
  std::size_t expanded = 0;
  Timer budget_timer;
  while (!queue.empty()) {
    const Node node = std::move(queue.front());
    queue.pop_front();
    if (node.suffix.size() >= options_.diff_depth) {
      result.truncated = true;  // deeper extensions exist but are unexplored
      continue;
    }
    if (options_.per_fault_seconds > 0 &&
        budget_timer.seconds() > options_.per_fault_seconds) {
      XATPG_WARN("per-fault wall-clock fallback ("
                 << options_.per_fault_seconds << "s) tripped after "
                 << expanded
                 << " expansions — this outcome is machine-dependent; raise "
                    "per_fault_seconds (or set 0) for reproducible results");
      result.truncated = true;
      return result;
    }
    for (const auto& edge : graph_.edges[node.good_id]) {
      if (++expanded > options_.diff_node_cap) {
        result.truncated = true;
        return result;
      }
      sim.restore(node.sim_state);
      const DetectStatus status =
          sim.step(edge.pattern, graph_.states[edge.to]);
      if (status == DetectStatus::GaveUp) {
        result.truncated = true;  // this branch is abandoned, not refuted
        continue;
      }
      auto suffix = node.suffix;
      suffix.push_back(edge.pattern);
      if (status == DetectStatus::Detected) {
        result.found = true;
        result.sequence = applied;
        for (auto& vec : suffix) result.sequence.vectors.push_back(vec);
        return result;
      }
      const std::string key = key_of(edge.to, sim.candidates_key());
      if (visited.insert(key).second)
        queue.push_back(Node{edge.to, sim.snapshot(), std::move(suffix)});
    }
  }
  return result;
}

bool AtpgEngine::provably_redundant_on(const Cssg& shard,
                                       const Fault& fault) const {
  const SymbolicEncoding& enc = shard.encoding();
  const SignalId src = fault.site == Fault::Site::GatePin
                           ? netlist_->gate(fault.gate).fanins[fault.pin]
                           : fault.gate;
  const Bdd lit = enc.cur(src);
  const Bdd differs = fault.stuck_value ? !lit : lit;
  // The line never differs from the stuck value in any test-mode-reachable
  // state => the faulty circuit is trajectory-equivalent to the good one
  // (inductively: identical states produce identical successor sets).
  return (shard.test_mode_reachable() & differs).is_false();
}

bool AtpgEngine::provably_redundant(const Fault& fault) const {
  return provably_redundant_on(*shard0_, fault);
}

AtpgEngine::SearchOutcome AtpgEngine::generate_test_on(
    const Cssg& shard, const Fault& fault) const {
  // Phase 1 — fault activation (§5.1): stable, valid-vector-reachable
  // states in which the faulted line carries the opposite of its stuck
  // value.
  TestSequence prefix;
  bool have_prefix = false;
  if (options_.use_activation) {
    const SymbolicEncoding& enc = shard.encoding();
    const SignalId src = fault.site == Fault::Site::GatePin
                             ? netlist_->gate(fault.gate).fanins[fault.pin]
                             : fault.gate;
    const Bdd lit = enc.cur(src);
    const Bdd excited = fault.stuck_value ? !lit : lit;
    const Bdd activation = excited & shard.cssg_reachable();
    if (!activation.is_false()) {
      // Phase 2 — state justification via the onion rings (§5.2).  The
      // justification is a pure function of the canonical activation set,
      // so every shard computes the identical prefix.
      const auto just = shard.justify(activation);
      if (just) {
        prefix.vectors = just->vectors;
        have_prefix = true;
      }
    }
    // Faults with no stable excitation state go directly to phase 3
    // (§5.1's "left directly to the last phase").
  }

  bool truncated = false;
  if (have_prefix) {
    const DiffResult with_prefix = differentiate(fault, prefix);
    if (with_prefix.found) return SearchOutcome{with_prefix.sequence, false};
    truncated = with_prefix.truncated;
  }
  // Fall back to a full differentiation search from reset: complete within
  // the caps, subsumes any choice of activation state.
  const DiffResult from_reset = differentiate(fault, TestSequence{});
  if (from_reset.found) return SearchOutcome{from_reset.sequence, false};
  // No test.  "Gave up" iff any cap truncated either search — an
  // untruncated exhaustion means the fault really has no test within the
  // caps' full space (redundant-in-practice), which bench coverage floors
  // must not confuse with a cap blowout.
  return SearchOutcome{std::nullopt, truncated || from_reset.truncated};
}

std::optional<TestSequence> AtpgEngine::generate_test(
    const Fault& fault) const {
  return generate_test_on(*shard0_, fault).sequence;
}

// ---------------------------------------------------------------------------
// Fault-parallel generation
// ---------------------------------------------------------------------------

void AtpgEngine::generate_parallel(const std::vector<Fault>& faults,
                                   const std::vector<std::size_t>& todo,
                                   const CancelToken* cancel,
                                   RunObserver* observer,
                                   const std::function<RunProgress()>& make_base) {
  const std::size_t workers =
      std::min(resolved_threads(options_.threads),
               todo.empty() ? std::size_t{1} : todo.size());
  if (shard_done_.size() < workers) shard_done_.resize(workers, 0);
  if (shard_steals_.size() < workers) shard_steals_.resize(workers, 0);

  // Results land here first (slot per fault index, written by exactly one
  // worker) and are memoized after the join: the cache is not touched from
  // worker threads.
  std::vector<SearchOutcome> generated(faults.size());
  std::vector<char> attempted(faults.size(), 0);

  if (workers <= 1) {
    for (const std::size_t i : todo) {
      if (cancel_fired(cancel)) break;
      generated[i] = generate_test_on(*shard0_, faults[i]);
      attempted[i] = 1;
      ++shard_done_[0];
    }
  } else {
    // Work-stealing fan-out: the batch is pre-split into coarse blocks of
    // fault indices dealt out across per-worker deques; a worker drains its
    // own deque first and steals whole blocks from a victim once dry, so a
    // whale fault pinning one worker donates that worker's untouched blocks
    // instead of stranding them.  Each block is processed on the claiming
    // worker's private shard.  Writing generated[i] is race-free: every
    // index is claimed by exactly one block, every block by exactly one
    // worker (the queue's single-CAS claim).
    StealingWorkQueue<std::size_t> queue(
        todo, work_block_size(todo.size(), workers), workers);
    if (extra_shards_.size() < workers - 1) extra_shards_.resize(workers - 1);
    std::vector<ShardCounters> counters(workers);
    std::vector<std::exception_ptr> errors(workers);
    {
      ThreadPool pool(workers - 1);
      for (std::size_t w = 1; w < workers; ++w) {
        pool.submit([&, w] {
          try {
            // Claim a block before (lazily) building the delta view: a
            // worker that never gets work pays nothing at all.  View
            // construction is cheap (handle adoption, no node copies) and
            // reads only the frozen base, which thread creation published.
            while (const auto block = queue.pop_block(w)) {
              if (!extra_shards_[w - 1]) extra_shards_[w - 1] = build_delta();
              const Cssg& shard = *extra_shards_[w - 1];
              counters[w].steals.store(queue.steals(w),
                                       std::memory_order_relaxed);
              for (const std::size_t i : *block) {
                if (cancel_fired(cancel)) return;
                generated[i] = generate_test_on(shard, faults[i]);
                attempted[i] = 1;
                const BddManager& mgr = shard.encoding().mgr();
                counters[w].live.store(mgr.allocated_nodes(),
                                       std::memory_order_relaxed);
                counters[w].peak.store(mgr.peak_nodes(),
                                       std::memory_order_relaxed);
                counters[w].reorders.store(mgr.reorder_count(),
                                           std::memory_order_relaxed);
                counters[w].cache_lookups.store(mgr.cache_lookups(),
                                                std::memory_order_relaxed);
                counters[w].cache_hits.store(mgr.cache_hits(),
                                             std::memory_order_relaxed);
                counters[w].unique_load_bits.store(
                    double_to_bits(mgr.unique_load()),
                    std::memory_order_relaxed);
                counters[w].done.fetch_add(1, std::memory_order_relaxed);
              }
            }
          } catch (...) {
            errors[w] = std::current_exception();
          }
        });
      }
      // The main thread is worker 0, on the engine's own context.  Between
      // its own blocks it streams a progress snapshot assembled from the
      // workers' published counters (observer contract: callbacks fire on
      // the calling thread only).
      try {
        while (const auto block = queue.pop_block(0)) {
          for (const std::size_t i : *block) {
            if (cancel_fired(cancel)) break;
            generated[i] = generate_test_on(*shard0_, faults[i]);
            attempted[i] = 1;
            counters[0].done.fetch_add(1, std::memory_order_relaxed);
          }
          if (observer != nullptr) {
            RunProgress progress = make_base();
            progress.shards.push_back(snapshot_shard(
                0, shard0_->encoding().mgr(),
                shard_done_[0] +
                    counters[0].done.load(std::memory_order_relaxed),
                shard_steals_[0] + queue.steals(0)));
            // Base sifting passes belong to shard 0 (counted once).
            progress.shards.back().reorders += base_reorder_count_;
            for (std::size_t w = 1; w < workers; ++w) {
              ShardBddStats stats;
              stats.shard = w;
              // Workers publish delta-arena counters only; the shared-base
              // size is a frozen constant the main thread composes in.
              stats.base_nodes = base_node_count_;
              stats.delta_peak =
                  counters[w].peak.load(std::memory_order_relaxed);
              stats.live_nodes =
                  base_node_count_ +
                  counters[w].live.load(std::memory_order_relaxed);
              stats.peak_nodes = base_node_count_ + stats.delta_peak;
              stats.reorders =
                  counters[w].reorders.load(std::memory_order_relaxed);
              stats.faults_done =
                  shard_done_[w] +
                  counters[w].done.load(std::memory_order_relaxed);
              stats.cache_lookups =
                  counters[w].cache_lookups.load(std::memory_order_relaxed);
              stats.cache_hits =
                  counters[w].cache_hits.load(std::memory_order_relaxed);
              stats.unique_load = bits_to_double(
                  counters[w].unique_load_bits.load(std::memory_order_relaxed));
              stats.blocks_stolen =
                  shard_steals_[w] +
                  counters[w].steals.load(std::memory_order_relaxed);
              progress.shards.push_back(stats);
            }
            observer->on_progress(progress);
          }
          if (cancel_fired(cancel)) break;
        }
      } catch (...) {
        errors[0] = std::current_exception();
      }
      pool.wait_idle();
    }
    for (const std::exception_ptr& error : errors)
      if (error) std::rethrow_exception(error);
    // Fold this batch's per-shard completions into the run-level totals so
    // snapshots emitted after the join keep reporting them.  Steal counts
    // come straight from the queue — exact after the join.
    for (std::size_t w = 0; w < workers; ++w) {
      shard_done_[w] += counters[w].done.load(std::memory_order_relaxed);
      shard_steals_[w] += queue.steals(w);
    }
  }

  // Memoize completed searches (single-threaded again).  Faults skipped by
  // a fired CancelToken stay unmemoized and are attempted by a later run.
  for (const std::size_t i : todo)
    if (attempted[i]) generated_cache_.emplace(faults[i], std::move(generated[i]));
}

std::vector<ShardBddStats> AtpgEngine::shard_bdd_stats() const {
  const auto count_of = [](const std::vector<std::size_t>& v, std::size_t w) {
    return w < v.size() ? v[w] : std::size_t{0};
  };
  std::vector<ShardBddStats> shards;
  shards.push_back(snapshot_shard(0, shard0_->encoding().mgr(),
                                  count_of(shard_done_, 0),
                                  count_of(shard_steals_, 0)));
  // Base sifting passes belong to shard 0 (counted once across shards).
  shards.back().reorders += base_reorder_count_;
  for (std::size_t w = 0; w < extra_shards_.size(); ++w) {
    if (!extra_shards_[w]) continue;
    shards.push_back(snapshot_shard(w + 1, extra_shards_[w]->encoding().mgr(),
                                    count_of(shard_done_, w + 1),
                                    count_of(shard_steals_, w + 1)));
  }
  return shards;
}

// ---------------------------------------------------------------------------
// Deterministic merge: cross fault simulation
// ---------------------------------------------------------------------------

void AtpgEngine::cross_simulate(
    const std::vector<Fault>& faults,
    std::vector<std::unique_ptr<FaultSimulator>>& sims, std::size_t committed,
    const TestSequence& seq, const std::vector<std::uint32_t>& path,
    int seq_index, AtpgResult& result,
    std::vector<std::size_t>& resolved) const {
  std::vector<std::size_t> remaining;
  for (std::size_t j = 0; j < faults.size(); ++j) {
    if (j == committed) continue;
    if (result.outcomes[j].covered_by != CoveredBy::None) continue;
    if (result.outcomes[j].proven_redundant) continue;
    remaining.push_back(j);
  }
  if (remaining.empty()) return;

  // Word-parallel ternary screen, 64 lanes per batch (lane 0 carries the
  // fault-free circuit, up to 63 lanes carry faults).  Sound: a ternary
  // flag means every execution of the faulty circuit mismatches a strobe.
  std::vector<bool> flagged(faults.size(), false);
  for (std::size_t begin = 0; begin < remaining.size(); begin += 63) {
    const std::size_t count = std::min<std::size_t>(63, remaining.size() - begin);
    std::vector<Fault> batch;
    batch.reserve(count);
    for (std::size_t b = 0; b < count; ++b)
      batch.push_back(faults[remaining[begin + b]]);
    for (const std::size_t hit :
         ternary_screen(*netlist_, reset_state_, batch, seq.vectors))
      flagged[remaining[begin + hit]] = true;
  }

  for (const std::size_t j : remaining) {
    // Exact pass for ternary flags (confirmation before attribution) and
    // for faults whose own 3-phase search already completed and failed —
    // for those the exact simulator is the only remaining chance at
    // coverage, exactly as in the serial engine; skipping it would regress
    // coverage where ternary is too conservative.
    if (!flagged[j]) {
      const auto it = generated_cache_.find(faults[j]);
      const bool search_exhausted =
          it != generated_cache_.end() && !it->second.sequence.has_value();
      if (!search_exhausted) continue;
    }
    FaultSimulator& sim = *sims[j];
    sim.restart();
    DetectStatus status = sim.status();
    for (std::size_t t = 0;
         t < seq.vectors.size() && status == DetectStatus::Undetermined; ++t)
      status = sim.step(seq.vectors[t], graph_.states[path[t + 1]]);
    if (status == DetectStatus::Detected) {
      result.outcomes[j].covered_by = CoveredBy::FaultSim;
      result.outcomes[j].sequence_index = seq_index;
      ++result.stats.by_fault_sim;
      resolved.push_back(j);
    }
  }
}

// ---------------------------------------------------------------------------
// Full flow
// ---------------------------------------------------------------------------

AtpgResult AtpgEngine::run(const std::vector<Fault>& faults,
                           RunObserver* observer, const CancelToken* cancel) {
  universe_ = faults;
  return run_universe(observer, cancel);
}

AtpgResult AtpgEngine::add_faults(const std::vector<Fault>& faults,
                                  RunObserver* observer,
                                  const CancelToken* cancel) {
  universe_.insert(universe_.end(), faults.begin(), faults.end());
  return run_universe(observer, cancel);
}

AtpgResult AtpgEngine::run_universe(RunObserver* observer,
                                    const CancelToken* cancel) {
  const std::vector<Fault>& faults = universe_;
  Timer total_timer;
  AtpgResult result;
  result.outcomes.reserve(faults.size());
  for (const Fault& f : faults) result.outcomes.push_back(FaultOutcome{f});
  result.stats.total_faults = faults.size();

  const auto is_cancelled = [&] {
    if (cancel_fired(cancel)) {
      result.cancelled = true;
      return true;
    }
    return false;
  };
  std::size_t resolved_count = 0;
  const auto notify_resolved = [&](std::size_t index) {
    ++resolved_count;
    if (observer != nullptr)
      observer->on_fault_resolved(index, result.outcomes[index]);
  };
  const auto progress_snapshot = [&](RunPhase phase) {
    RunProgress progress;
    progress.phase = phase;
    progress.faults_total = faults.size();
    progress.faults_resolved = resolved_count;
    progress.covered = result.stats.by_random + result.stats.by_three_phase +
                       result.stats.by_fault_sim;
    progress.sequences_committed = result.sequences.size();
    progress.elapsed_seconds = total_timer.seconds();
    return progress;
  };
  // Per-shard completion/steal counters restart with each run (filled by
  // generate_parallel, reported by every later snapshot).
  shard_done_.assign(shard_done_.size(), 0);
  shard_steals_.assign(shard_steals_.size(), 0);
  // Full snapshot incl. shard stats — only safe while no workers run (the
  // parallel fan-out assembles its own snapshots from published counters).
  const auto emit_progress = [&](RunPhase phase) {
    if (observer == nullptr) return;
    RunProgress progress = progress_snapshot(phase);
    progress.shards = shard_bdd_stats();
    observer->on_progress(progress);
  };

  // Long-lived exact simulators, one per fault — stepped along random walks
  // first, restart()ed per committed sequence in the merge phase later.
  std::vector<std::unique_ptr<FaultSimulator>> sims;
  sims.reserve(faults.size());
  for (const Fault& f : faults)
    sims.push_back(std::make_unique<FaultSimulator>(*netlist_, f,
                                                    reset_state_, options_.sim));

  // --- Random TPG (§5.4) ----------------------------------------------------
  if (observer != nullptr) observer->on_phase(RunPhase::RandomTpg);
  Timer random_timer;
  Rng rng(options_.seed);
  std::size_t budget = options_.random_budget;
  while (budget > 0 && !is_cancelled()) {
    // A fresh walk models a reset pulse followed by random valid vectors.
    // A circuit whose reset state has no valid vector at all (every pattern
    // races — it happens on heavily hazardous bounded-delay circuits)
    // cannot be random-tested.
    if (graph_.edges[reset_id_].empty()) break;
    for (auto& sim : sims) sim->restart();
    TestSequence walk;
    std::uint32_t good_id = reset_id_;
    std::vector<std::size_t> walk_resolved;
    for (std::size_t step = 0; step < options_.random_walk_len && budget > 0;
         ++step) {
      const auto& edges = graph_.edges[good_id];
      if (edges.empty()) break;
      const auto& edge = edges[rng.below(edges.size())];
      --budget;
      walk.vectors.push_back(edge.pattern);
      const auto& good_state = graph_.states[edge.to];
      for (std::size_t i = 0; i < sims.size(); ++i) {
        if (result.outcomes[i].covered_by != CoveredBy::None) continue;
        if (sims[i]->status() != DetectStatus::Undetermined) continue;
        if (sims[i]->step(edge.pattern, good_state) == DetectStatus::Detected) {
          result.outcomes[i].covered_by = CoveredBy::Random;
          result.outcomes[i].sequence_index =
              static_cast<int>(result.sequences.size());
          ++result.stats.by_random;
          walk_resolved.push_back(i);
        }
      }
      good_id = edge.to;
    }
    if (!walk_resolved.empty()) {
      result.sequences.push_back(walk);
      for (const std::size_t i : walk_resolved) notify_resolved(i);
      emit_progress(RunPhase::RandomTpg);
    }
    // Stop early once everything is covered.
    if (result.stats.by_random == faults.size()) break;
  }
  result.stats.random_seconds = random_timer.seconds();

  // --- a-priori undetectable-fault classification (optional, §6) ------------
  if (options_.classify_undetectable && !result.cancelled) {
    if (observer != nullptr) observer->on_phase(RunPhase::Classify);
    for (std::size_t i = 0; i < faults.size() && !is_cancelled(); ++i) {
      if (result.outcomes[i].covered_by != CoveredBy::None) continue;
      if (provably_redundant(faults[i])) {
        result.outcomes[i].proven_redundant = true;
        ++result.stats.proven_redundant;
        notify_resolved(i);
      }
    }
    emit_progress(RunPhase::Classify);
  }

  // --- fault-parallel 3-phase ATPG (§5.1–§5.3) -------------------------------
  Timer three_phase_timer;
  if (observer != nullptr) observer->on_phase(RunPhase::ThreePhase);
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (result.outcomes[i].covered_by == CoveredBy::None &&
        !result.outcomes[i].proven_redundant)
      todo.push_back(i);

  // Search every unmemoized fault up front (one parallel fan-out; memoized
  // searches from earlier runs on this engine are reused, never redone).
  std::vector<std::size_t> unsearched;
  for (const std::size_t i : todo)
    if (!generated_cache_.contains(faults[i])) unsearched.push_back(i);
  if (!is_cancelled())
    generate_parallel(faults, unsearched, cancel, observer,
                      [&] { return progress_snapshot(RunPhase::ThreePhase); });

  // --- deterministic merge + cross fault simulation (§5.4) -------------------
  // Commit strictly in fault-list order; a fault already picked up by an
  // earlier committed sequence's cross simulation discards its own test.
  for (const std::size_t i : todo) {
    if (is_cancelled()) break;
    if (result.outcomes[i].covered_by != CoveredBy::None) continue;
    // Only a cancel fired during the fan-out leaves a fault unsearched, and
    // a fired token stops the loop above.
    const auto cached = generated_cache_.find(faults[i]);
    XATPG_CHECK(cached != generated_cache_.end());
    if (!cached->second.sequence) continue;  // undetected (redundant or gave up)
    const TestSequence& seq = *cached->second.sequence;
    const int seq_index = static_cast<int>(result.sequences.size());
    result.outcomes[i].covered_by = CoveredBy::ThreePhase;
    result.outcomes[i].sequence_index = seq_index;
    ++result.stats.by_three_phase;

    const auto path = follow(seq);
    XATPG_CHECK(path.has_value());
    std::vector<std::size_t> resolved;
    cross_simulate(faults, sims, i, seq, *path, seq_index, result, resolved);
    result.sequences.push_back(seq);
    notify_resolved(i);
    for (const std::size_t j : resolved) notify_resolved(j);
    emit_progress(RunPhase::ThreePhase);
  }
  result.stats.three_phase_seconds = three_phase_timer.seconds();

  // Surface which uncovered faults were cap-truncated ("gave up") vs
  // genuinely search-exhausted — the distinction bench coverage floors need
  // to tell a redundant design from a budget blowout.  Cancelled runs may
  // leave faults unsearched; those stay gave_up = false (they were never
  // attempted, a later run will search them).
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (result.outcomes[i].covered_by != CoveredBy::None) continue;
    if (result.outcomes[i].proven_redundant) continue;
    const auto it = generated_cache_.find(faults[i]);
    if (it != generated_cache_.end() && it->second.gave_up) {
      result.outcomes[i].gave_up = true;
      ++result.stats.gave_up;
    }
  }

  result.stats.covered = result.stats.by_random + result.stats.by_three_phase +
                         result.stats.by_fault_sim;
  result.stats.undetected = result.stats.total_faults - result.stats.covered;
  result.stats.seconds = total_timer.seconds();
  if (observer != nullptr) {
    observer->on_phase(RunPhase::Done);
    emit_progress(RunPhase::Done);
  }
  return result;
}

void write_test_program(std::ostream& out, const Netlist& netlist,
                        const AtpgEngine& engine,
                        const std::vector<TestSequence>& sequences) {
  out << "# xatpg synchronous test program for '" << netlist.name() << "'\n";
  out << ".inputs";
  for (const SignalId in : netlist.inputs())
    out << " " << netlist.signal_name(in);
  out << "\n.outputs";
  for (const SignalId po : netlist.outputs())
    out << " " << netlist.signal_name(po);
  out << "\n";
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    const auto path = engine.follow(sequences[s]);
    XATPG_CHECK_MSG(path.has_value(), "sequence is not CSSG-valid");
    out << ".sequence " << s << "  # apply from reset\n";
    for (std::size_t t = 0; t < sequences[s].vectors.size(); ++t) {
      for (const bool b : sequences[s].vectors[t]) out << (b ? '1' : '0');
      out << " / ";
      const auto& state = engine.graph().states[(*path)[t + 1]];
      for (const SignalId po : netlist.outputs()) out << (state[po] ? '1' : '0');
      out << "\n";
    }
  }
  out << ".end\n";
}

}  // namespace xatpg
