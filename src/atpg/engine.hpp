// The ATPG engine (§5): random TPG on the CSSG, 3-phase symbolic ATPG
// (fault activation / state justification / state differentiation), and
// cross fault simulation of every generated sequence — with per-phase
// statistics matching the paper's table columns (rnd / 3-ph / sim).
//
// Public-surface note: the plain data types this engine produces and
// consumes (AtpgOptions, Fault, TestSequence, CoveredBy, FaultOutcome,
// AtpgStats, AtpgResult) and the streaming run model (RunObserver,
// RunProgress, CancelToken) are part of the installed API and live under
// include/xatpg/; the engine itself is internal — out-of-tree consumers
// drive it through xatpg::Session.
//
// Parallel architecture: the 3-phase search is embarrassingly parallel
// across the fault list, so run() fans it out over `threads` workers.
//   * The constructor builds the shared symbolic substrate (encoding +
//     CSSG relations + reachable sets) ONCE, then freezes its BddManager:
//     the node arena, unique subtables and variable order become immutable
//     and lock-free readable (the freeze is the publication point — see
//     bdd/bdd.hpp's base/delta layering).  Each worker owns a lightweight
//     *delta view* over that frozen base: substrate nodes resolve against
//     the shared arena, fault-specific nodes allocate in a private delta
//     arena, and GC runs on the delta only.  Workers therefore pay for the
//     substrate zero times instead of once each — the old private-shard
//     design multiplied the paper's peak-node accounting by the worker
//     count.  BDD managers stay single-threaded by contract (bdd/bdd.hpp);
//     only the read-only base is shared.
//   * The explicit CSSG and the netlist are shared read-only by all workers
//     (the const query path: ExplicitCssg lookups, FaultSimulator replay).
//   * Faults are distributed through a work-stealing scheduler
//     (util/work_queue.hpp): the fault batch is pre-split into coarse
//     blocks dealt out to per-worker deques; each worker drains its own
//     deque front-first and, when dry, steals whole blocks from the back of
//     a victim's deque.  Per-fault search cost is heavy-tailed (one "whale"
//     fault can cost 10000x the median), so stealing keeps the other
//     workers fed when one is pinned — without putting thieves on the
//     owner's common path (they only collide on a deque's last block).
//   * The merge is deterministic: every still-uncovered fault's test is
//     generated up front (each fault's search depends only on the fault, not
//     on scheduling or which shard ran it), then outcomes are committed
//     strictly in fault-list order, and cross fault simulation of each
//     committed sequence (the paper's "sim" column) runs as a post-merge
//     word-parallel ternary pass in 64-lane batches (+ exact confirmation).
//     Every search cutoff is deterministic too (diff_depth/diff_node_cap;
//     the wall clock is an off-by-default fallback).  Results are therefore
//     byte-identical for any thread count and any steal interleaving,
//     including threads=1.
//
// Streaming, cancellation, incrementality:
//   * run(faults, observer, cancel) fires RunObserver callbacks from the
//     calling thread only, checks the CancelToken between faults (and
//     between work blocks inside the parallel fan-out), and on cancellation
//     returns the deterministic partial result: the sequence list is a
//     prefix of the uncancelled run's, and every committed outcome is
//     final.
//   * Generated tests are memoized per fault across runs (each test is a
//     pure function of the fault given the circuit/options).  add_faults()
//     re-runs the whole flow on the grown universe: every fault still
//     uncovered after the cheap phases whose search is not memoized is
//     searched before the first commit, memoized searches are reused, so
//     the result is byte-identical to a from-scratch run on the union
//     universe and no search is ever paid for twice.  add_faults({}) after
//     a cancelled run resumes it for the same reason.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "sgraph/cssg.hpp"
#include "xatpg/options.hpp"
#include "xatpg/progress.hpp"
#include "xatpg/types.hpp"

namespace xatpg {

/// ATPG driver bound to one circuit + reset state.  The CSSG is computed
/// once and shared across fault universes (run() can be called repeatedly);
/// worker shards and memoized 3-phase searches are likewise reused by later
/// run()/add_faults() calls on the same engine.
class AtpgEngine {
 public:
  /// Rejects degenerate options loudly: throws CheckError when
  /// options.validate() fails (the Session facade reports the same failure
  /// as a typed OptionError before ever reaching this constructor).
  AtpgEngine(const Netlist& netlist, const std::vector<bool>& reset_state,
             const AtpgOptions& options = {});

  /// The main thread's delta view of the shared abstraction.  Queries on it
  /// (to_dot, justify, image…) allocate in the view's private delta arena;
  /// the frozen base underneath is never mutated.  Use base_cssg() to reach
  /// the frozen substrate itself (handle reads only).
  const Cssg& cssg() const { return *shard0_; }
  /// The frozen shared base (read-only; mutating queries would throw).
  const Cssg& base_cssg() const { return *cssg_; }
  const ExplicitCssg& graph() const { return graph_; }
  const AtpgOptions& options() const { return options_; }

  /// Run the full flow (random TPG -> fault-parallel 3-phase ->
  /// deterministic merge with cross fault simulation) on the given fault
  /// universe, replacing any previous universe.  `observer` (optional)
  /// receives the streaming events, `cancel` (optional) stops the run
  /// cooperatively between faults — see xatpg/progress.hpp for the
  /// contract.
  AtpgResult run(const std::vector<Fault>& faults,
                 RunObserver* observer = nullptr,
                 const CancelToken* cancel = nullptr);

  /// Grow the current universe by `faults` and run the flow on the union.
  /// Memoized searches are reused and every new still-uncovered fault is
  /// searched before the first commit, so the result is byte-identical to
  /// run(union) without redoing any earlier search.
  AtpgResult add_faults(const std::vector<Fault>& faults,
                        RunObserver* observer = nullptr,
                        const CancelToken* cancel = nullptr);

  /// The fault universe accumulated by run()/add_faults().
  const std::vector<Fault>& universe() const { return universe_; }

  /// BDD accounting for every built symbolic shard (shard 0 = the engine's
  /// own context, then each lazily built worker shard), with faults_done /
  /// blocks_stolen from the most recent run.  Main-thread only, between
  /// runs — the same snapshot the final progress callback reports.
  std::vector<ShardBddStats> shard_bdd_stats() const;

  /// 3-phase ATPG for a single fault; returns the test sequence (from
  /// reset) or nullopt if the search space is exhausted (fault redundant or
  /// beyond the caps).
  std::optional<TestSequence> generate_test(const Fault& fault) const;

  /// True if the a-priori classifier proves the fault undetectable: the
  /// faulted line equals the stuck value in every state any legal test can
  /// drive the circuit through (stable or transient), so the fault can
  /// never change any gate's behaviour during test.
  bool provably_redundant(const Fault& fault) const;

  /// Good-circuit states visited by a sequence (from reset); nullopt if a
  /// vector is not a valid CSSG edge.
  std::optional<std::vector<std::uint32_t>> follow(
      const TestSequence& seq) const;

 private:
  struct DiffResult {
    bool found = false;
    TestSequence sequence;
    /// Some part of the space was cut off by a cap (depth, node count,
    /// simulator candidate cap, wall-clock fallback) — "not found" means
    /// "gave up", not "proved absent".
    bool truncated = false;
  };
  /// A completed 3-phase search: the test (nullopt = none found) plus
  /// whether the search was cap-truncated.  gave_up is meaningful only when
  /// sequence is empty — a found test is a found test however hard the
  /// search worked.
  struct SearchOutcome {
    std::optional<TestSequence> sequence;
    bool gave_up = false;
  };
  struct FaultHash {
    std::size_t operator()(const Fault& fault) const;
  };
  /// Per-worker progress counters published at fault granularity so the
  /// main thread can stream per-shard BDD statistics while workers run.
  struct ShardCounters;

  /// Phase 3 BFS.  Touches only shared read-only state (netlist, explicit
  /// graph) — safe from any worker.
  DiffResult differentiate(const Fault& fault, const TestSequence& prefix) const;
  /// 3-phase search against a specific symbolic shard (phases 1+2 run on
  /// the shard's BddManager; phase 3 on the shared explicit graph).
  SearchOutcome generate_test_on(const Cssg& shard, const Fault& fault) const;
  bool provably_redundant_on(const Cssg& shard, const Fault& fault) const;
  /// The full monolithic Cssg the constructor builds (and then freezes into
  /// the shared base).
  std::unique_ptr<Cssg> build_shard() const;
  /// A fresh delta view over the frozen base — what every worker gets.
  std::unique_ptr<Cssg> build_delta() const;
  /// The full deterministic flow over universe_ (shared by run/add_faults).
  AtpgResult run_universe(RunObserver* observer, const CancelToken* cancel);
  /// Fan the 3-phase search for `todo` (fault indices) out over the worker
  /// shards, memoizing each completed search in generated_cache_.  Called
  /// once per run, before the merge, with every unmemoized fault the merge
  /// may commit.  Faults skipped because `cancel` fired are left unmemoized
  /// (a later run attempts them again).  Progress snapshots stream from the
  /// calling thread between its own work blocks; `make_base` supplies a
  /// fresh run-level snapshot (elapsed time, resolved counts) per emission.
  /// Per-shard completed-search and steal counts are added to shard_done_ /
  /// shard_steals_ so later snapshots keep reporting them.
  void generate_parallel(const std::vector<Fault>& faults,
                         const std::vector<std::size_t>& todo,
                         const CancelToken* cancel, RunObserver* observer,
                         const std::function<RunProgress()>& make_base);
  /// Post-merge cross fault simulation of one committed sequence: 64-lane
  /// ternary screen over the remaining uncovered faults, exact confirmation
  /// of every flag, exact fallback for faults with no generated test.
  /// `sims` are the long-lived per-fault exact simulators (restart()ed per
  /// sequence, as in the random phase).  `resolved` collects the indices
  /// whose outcome this call finalized (for observer events).
  void cross_simulate(const std::vector<Fault>& faults,
                      std::vector<std::unique_ptr<FaultSimulator>>& sims,
                      std::size_t committed, const TestSequence& seq,
                      const std::vector<std::uint32_t>& path, int seq_index,
                      AtpgResult& result,
                      std::vector<std::size_t>& resolved) const;

  const Netlist* netlist_;
  std::vector<bool> reset_state_;
  AtpgOptions options_;
  /// The shared symbolic substrate: built once by the constructor, then
  /// frozen (immutable, lock-free readable).  Must outlive every delta view.
  std::unique_ptr<Cssg> cssg_;
  /// The main thread's delta view over cssg_ (worker slot 0).
  std::unique_ptr<Cssg> shard0_;
  /// Frozen-base arena size and sifting-pass count, captured at freeze time
  /// so worker-snapshot composition never touches the base manager from
  /// another thread.  Base reorders are attributed to shard 0 (once), so
  /// summing shard reorders across shards counts the base exactly once.
  std::size_t base_node_count_ = 0;
  std::size_t base_reorder_count_ = 0;
  ExplicitCssg graph_;
  std::uint32_t reset_id_ = 0;
  /// Lazily built per-worker delta views (slot w serves pool worker w); the
  /// main thread always works on shard0_.  Reused by subsequent run() calls.
  std::vector<std::unique_ptr<Cssg>> extra_shards_;
  /// The current fault universe (run() replaces, add_faults() extends).
  std::vector<Fault> universe_;
  /// Per-shard 3-phase searches completed / blocks stolen during the most
  /// recent run (index = worker slot).  Reset at the start of run_universe,
  /// filled by its generate_parallel call, reported by progress snapshots
  /// and shard_bdd_stats().
  std::vector<std::size_t> shard_done_;
  std::vector<std::size_t> shard_steals_;
  /// Memoized 3-phase searches: presence means the search was *completed*
  /// for that fault (SearchOutcome::sequence nullopt = search exhausted or
  /// gave up, fault undetected by its own test).  Never invalidated — a
  /// search outcome is a pure function of (circuit, reset, options, fault).
  std::unordered_map<Fault, SearchOutcome, FaultHash> generated_cache_;
};

/// Tester-facing export: vectors and expected primary-output responses per
/// cycle, in a simple line format a synchronous tester can replay.
void write_test_program(std::ostream& out, const Netlist& netlist,
                        const AtpgEngine& engine,
                        const std::vector<TestSequence>& sequences);

}  // namespace xatpg
