// Streaming run model of the public xatpg API: phase transitions, per-fault
// resolution events, periodic progress snapshots (including per-shard BDD
// statistics), and cooperative cancellation.
//
// Observer contract
// -----------------
//  * Every callback is invoked on the thread that called Session::run /
//    AtpgEngine::run — never from a worker thread — so observers need no
//    locking of their own state.
//  * Callbacks fire between faults (and between work blocks during the
//    parallel 3-phase fan-out); keep them cheap, they sit on the run's
//    critical path.
//  * The random phase's events fire after its pass: on_phase(RandomTpg)
//    comes first, then the fault-parallel pass runs with no callback, then
//    each committed walk's on_fault_resolved events and one on_progress
//    snapshot follow, walk by walk.
//  * on_fault_resolved fires exactly once per fault whose outcome becomes
//    final during the run (covered by any phase, or proven redundant);
//    faults left undetected get no event.  Events arrive in deterministic
//    order for a fixed fault list, independent of the thread count.  The
//    reported outcome is final: it equals the returned result's entry for
//    that fault.
//  * A CancelToken may be fired from any thread (it is a thread-safe shared
//    flag), including from inside an observer callback.  The run stops at
//    the next between-faults checkpoint and returns the deterministic
//    partial result (AtpgResult::cancelled == true), a prefix of the
//    uncancelled run's; a new run on the same faults redoes the job from
//    scratch.  A cancel fired during the random pass (on_phase(RandomTpg)
//    included) commits no random walk: the partial result holds no
//    sequence at all.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "xatpg/types.hpp"

namespace xatpg {

/// numerator / denominator with a uniform guard: 0 when the denominator is
/// zero or the quotient is non-finite.  Every derived rate in the public
/// surface (cache hit rate, sweep speedup/efficiency) goes through this so
/// zero-work runs and degenerate inputs can never produce NaN/inf.
[[nodiscard]] inline double safe_ratio(double numerator, double denominator) {
  if (denominator == 0.0) return 0.0;
  const double ratio = numerator / denominator;
  return std::isfinite(ratio) ? ratio : 0.0;
}

/// Cooperative cancellation handle: a copyable reference to a shared flag.
/// Copies observe the same flag; request_cancel() is safe from any thread.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() noexcept {
    flag_->store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }
  void reset() noexcept { flag_->store(false, std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Phases of one run, in order (Classify is skipped unless
/// AtpgOptions::classify_undetectable is set).
enum class RunPhase : std::uint8_t {
  RandomTpg,   ///< random walks on the explicit CSSG
  Classify,    ///< a-priori undetectable-fault classification
  ThreePhase,  ///< fault-parallel 3-phase search + deterministic merge
  Done,        ///< run finished (also fired after a cancelled run)
};

constexpr const char* run_phase_name(RunPhase phase) {
  switch (phase) {
    case RunPhase::RandomTpg: return "random-tpg";
    case RunPhase::Classify: return "classify";
    case RunPhase::ThreePhase: return "three-phase";
    case RunPhase::Done: return "done";
  }
  return "?";
}

/// BDD accounting for one symbolic shard.  Shard 0 is the engine's own
/// context (the main thread's worker); shards 1..N-1 are the worker shards,
/// reported only once they have been built (lazy workers that never claim a
/// fault block stay at zero).
struct ShardBddStats {
  std::size_t shard = 0;
  /// Resident nodes this shard can reference: the frozen shared base arena
  /// plus its private delta arena (live + uncollected).
  std::size_t live_nodes = 0;
  /// Resident-node watermark: base_nodes + delta_peak.  NOTE: the base
  /// arena is SHARED — summing peak_nodes across shards counts it once per
  /// shard.  Corpus-level totals must use base_nodes once + Σ delta_peak.
  std::size_t peak_nodes = 0;
  /// Nodes in the frozen shared base arena this shard's delta resolves
  /// against (identical for every shard of one engine; 0 for a monolithic
  /// manager).
  std::size_t base_nodes = 0;
  /// This shard's private delta-arena allocated-node watermark.
  std::size_t delta_peak = 0;
  std::size_t reorders = 0;     ///< sifting passes performed
  std::size_t faults_done = 0;  ///< 3-phase searches completed on this shard
  std::size_t cache_lookups = 0;  ///< computed-cache probes (cumulative)
  std::size_t cache_hits = 0;     ///< probes answered from the cache
  /// Work blocks this shard's worker claimed by stealing from another
  /// worker's deque (scheduler telemetry; results never depend on it).
  std::size_t blocks_stolen = 0;
  /// Unique-table load factor (chained entries / buckets, in [0, 2];
  /// subtables double at 2).
  double unique_load = 0;

  /// Fraction of computed-cache probes answered from the cache (0 when the
  /// shard has not probed yet).
  [[nodiscard]] double cache_hit_rate() const {
    return safe_ratio(static_cast<double>(cache_hits),
                      static_cast<double>(cache_lookups));
  }
};

/// Periodic progress snapshot, emitted from the run's calling thread.
struct RunProgress {
  RunPhase phase = RunPhase::RandomTpg;
  std::size_t faults_total = 0;
  /// Faults whose outcome is final (covered or proven redundant).
  std::size_t faults_resolved = 0;
  std::size_t covered = 0;
  std::size_t sequences_committed = 0;
  double elapsed_seconds = 0;
  std::vector<ShardBddStats> shards;
};

/// Streaming observer for Session::run / AtpgEngine::run.  Default methods
/// are no-ops: override only what you need.
class RunObserver {
 public:
  virtual ~RunObserver() = default;

  /// A phase begins.  RunPhase::Done fires exactly once, at the end.
  virtual void on_phase(RunPhase /*phase*/) {}

  /// Fault `outcome.fault` (index `fault_index` in the run's fault list)
  /// reached its final outcome: covered by some phase, or proven redundant.
  virtual void on_fault_resolved(std::size_t /*fault_index*/,
                                 const FaultOutcome& /*outcome*/) {}

  /// Periodic snapshot (after each committed random walk, between
  /// generation work blocks, after each committed sequence).
  virtual void on_progress(const RunProgress& /*progress*/) {}
};

}  // namespace xatpg
