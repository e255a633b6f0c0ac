// Determinism suite for the fault-parallel ATPG engine: the fan-out over
// worker shards must be invisible in the results.  For every fixture
// circuit, `AtpgEngine::run` with threads ∈ {1, 2, 4, 8} must produce
// byte-identical FaultOutcome tables, test sequences, and phase counters —
// scheduling (including work stealing) may only change wall-clock numbers.
//
// The fault-major random phase is checked against the walk-major loop it
// replaced (tests/oracle.hpp): same outcomes, walks and event order.
//
// This suite is also the ThreadSanitizer workload in CI: the threads=2/4/8
// runs exercise the thread pool, the work-stealing queue (own-deque pops
// AND cross-deque steals, including the owner/thief race on a deque's last
// block), the per-worker shard build, the per-fault simulators of the
// random phase, and every shared read-only path (netlist, explicit CSSG).
#include "atpg/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "atpg/fault.hpp"
#include "benchmarks/benchmarks.hpp"
#include "fixtures.hpp"
#include "oracle.hpp"
#include "util/thread_pool.hpp"
#include "util/work_queue.hpp"

namespace xatpg {
namespace {

AtpgOptions determinism_options(std::size_t threads) {
  AtpgOptions options;
  options.random_budget = 24;
  options.random_walk_len = 6;
  options.seed = 5;
  options.threads = threads;
  // The wall-clock fallback (the one machine-dependent knob) is disabled by
  // default; state it explicitly — this suite is the byte-identity
  // guarantee, and it must hold even under slow sanitizers.
  options.per_fault_seconds = 0;
  return options;
}

void expect_identical(const AtpgResult& base, const AtpgResult& other,
                      std::size_t threads, const std::string& name) {
  SCOPED_TRACE(name + " threads=" + std::to_string(threads));
  EXPECT_EQ(base.outcomes, other.outcomes);
  EXPECT_EQ(base.sequences, other.sequences);
  EXPECT_EQ(base.stats.by_random, other.stats.by_random);
  EXPECT_EQ(base.stats.by_three_phase, other.stats.by_three_phase);
  EXPECT_EQ(base.stats.by_fault_sim, other.stats.by_fault_sim);
  EXPECT_EQ(base.stats.covered, other.stats.covered);
  EXPECT_EQ(base.stats.undetected, other.stats.undetected);
  EXPECT_EQ(base.stats.proven_redundant, other.stats.proven_redundant);
  EXPECT_EQ(base.stats.gave_up, other.stats.gave_up);
}

void check_determinism(const Netlist& netlist, const std::vector<bool>& reset,
                       const std::string& name, bool classify = false,
                       bool reorder = false) {
  std::optional<AtpgResult> base_in, base_out;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    AtpgOptions options = determinism_options(threads);
    options.classify_undetectable = classify;
    if (reorder) {
      // Aggressive trigger so per-shard sifting actually fires mid-run
      // (several times per run on these circuits): each worker's shard
      // reorders on its own schedule, and that must stay invisible in the
      // merged results.
      options.reorder.enabled = true;
      options.reorder.trigger_nodes = 64;
    }
    AtpgEngine engine(netlist, reset, options);
    const AtpgResult in = engine.run(input_stuck_faults(netlist));
    const AtpgResult out = engine.run(output_stuck_faults(netlist));
    if (!base_in) {
      base_in = in;
      base_out = out;
      continue;
    }
    expect_identical(*base_in, in, threads, name + "/input");
    expect_identical(*base_out, out, threads, name + "/output");
  }
}

/// Records every on_fault_resolved event of one run.
class ResolvedRecorder : public RunObserver {
 public:
  void on_fault_resolved(std::size_t index,
                         const FaultOutcome& outcome) override {
    events.emplace_back(index, outcome);
  }
  std::vector<std::pair<std::size_t, FaultOutcome>> events;
};

// --- random phase against the walk-major oracle --------------------------------
// 512 vectors in walks of 6 make 86 walks: several of them commit (3 on
// bd/hazard, 6 on mmu) and faults resolve at different steps of one walk,
// so a commit in the wrong walk or fault order shows.  (determinism_options'
// single walk of 24 cannot.)

void check_random_phase(const Netlist& netlist, const std::vector<bool>& reset,
                        const std::vector<Fault>& faults,
                        const std::string& name) {
  std::optional<testing::OracleRandomPhase> oracle;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE(name + " threads=" + std::to_string(threads));
    AtpgOptions options = determinism_options(threads);
    options.random_budget = 512;
    options.random_walk_len = 6;
    AtpgEngine engine(netlist, reset, options);
    if (!oracle) {
      oracle = testing::oracle_random_phase(engine, netlist, reset, faults);
      ASSERT_FALSE(oracle->sequences.empty());
    }
    ResolvedRecorder recorder;
    const AtpgResult result = engine.run(faults, &recorder);

    EXPECT_EQ(result.stats.by_random, oracle->resolved.size());
    ASSERT_GE(result.sequences.size(), oracle->sequences.size());
    for (std::size_t s = 0; s < oracle->sequences.size(); ++s)
      EXPECT_EQ(result.sequences[s], oracle->sequences[s]) << "sequence " << s;
    for (std::size_t j = 0; j < faults.size(); ++j) {
      if (oracle->outcomes[j].covered_by == CoveredBy::Random)
        EXPECT_EQ(result.outcomes[j], oracle->outcomes[j]) << "fault " << j;
      else
        EXPECT_NE(result.outcomes[j].covered_by, CoveredBy::Random)
            << "fault " << j;
    }
    // The random phase resolves first, in the oracle's order.
    ASSERT_GE(recorder.events.size(), oracle->resolved.size());
    std::vector<std::size_t> first_events;
    for (std::size_t e = 0; e < oracle->resolved.size(); ++e)
      first_events.push_back(recorder.events[e].first);
    EXPECT_EQ(first_events, oracle->resolved);
  }
}

TEST(RandomPhase, MatchesWalkMajorOracleOnRandS11) {
  RandomNetlistOptions shape;  // the perf corpus's rand/s11 shape
  shape.num_inputs = 3;
  shape.num_gates = 8;
  const fixtures::Circuit c = fixtures::random_netlist(11, shape);
  check_random_phase(c.netlist, c.reset, input_stuck_faults(c.netlist),
                     "rand/s11/input");
  check_random_phase(c.netlist, c.reset, output_stuck_faults(c.netlist),
                     "rand/s11/output");
}

TEST(RandomPhase, MatchesWalkMajorOracleOnBdHazard) {
  const auto synth = benchmark_circuit("hazard", SynthStyle::BoundedDelay);
  check_random_phase(synth.netlist, synth.reset_state,
                     input_stuck_faults(synth.netlist), "bd/hazard/input");
}

TEST(RandomPhase, MatchesWalkMajorOracleOnMmu) {
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  check_random_phase(synth.netlist, synth.reset_state,
                     input_stuck_faults(synth.netlist), "bd/mmu/input");
}

TEST(RandomPhase, HugeBudgetStopsOnceEveryFaultIsDetected) {
  // Walks are generated in bounded rounds, and the pass ends once no fault
  // is left: a budget of 2^40 vectors (a serve frame may ask for up to
  // 2^53) must neither allocate its walks up front nor walk them all when
  // the first walks already detect every fault.
  const auto synth = benchmark_circuit("chu150", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    AtpgOptions options = determinism_options(threads);
    options.random_budget = 512;
    options.random_walk_len = 48;
    AtpgEngine small(synth.netlist, synth.reset_state, options);
    const AtpgResult expected = small.run(faults);
    ASSERT_EQ(expected.stats.by_random, faults.size());
    options.random_budget = std::size_t{1} << 40;
    AtpgEngine huge(synth.netlist, synth.reset_state, options);
    expect_identical(expected, huge.run(faults), threads, "chu150/bd");
  }
}

TEST(ParallelDeterminism, Fig1a) {
  const fixtures::Circuit c = fixtures::fig1a();
  check_determinism(c.netlist, c.reset, "fig1a");
}

TEST(ParallelDeterminism, Fig1b) {
  const fixtures::Circuit c = fixtures::fig1b();
  check_determinism(c.netlist, c.reset, "fig1b");
}

TEST(ParallelDeterminism, AsyncLatch) {
  const fixtures::Circuit c = fixtures::async_latch();
  check_determinism(c.netlist, c.reset, "latch");
}

TEST(ParallelDeterminism, Pipeline2) {
  const fixtures::Circuit c = fixtures::pipeline2();
  check_determinism(c.netlist, c.reset, "pipeline2");
}

TEST(ParallelDeterminism, RpdftWithClassifier) {
  const auto synth = benchmark_circuit("rpdft", SynthStyle::SpeedIndependent);
  check_determinism(synth.netlist, synth.reset_state, "rpdft",
                    /*classify=*/true);
}

// Dynamic BDD reordering runs per shard, at shard-local trigger points that
// differ with the fault split — the determinism guarantee must hold anyway.
TEST(ParallelDeterminism, Pipeline2WithReordering) {
  const fixtures::Circuit c = fixtures::pipeline2();
  check_determinism(c.netlist, c.reset, "pipeline2+reorder",
                    /*classify=*/false, /*reorder=*/true);
}

TEST(ParallelDeterminism, RpdftWithClassifierAndReordering) {
  const auto synth = benchmark_circuit("rpdft", SynthStyle::SpeedIndependent);
  check_determinism(synth.netlist, synth.reset_state, "rpdft+reorder",
                    /*classify=*/true, /*reorder=*/true);
}

// Thread count 0 (= hardware concurrency) must also match threads=1.
TEST(ParallelDeterminism, HardwareThreadsMatchSerial) {
  const fixtures::Circuit c = fixtures::pipeline2();
  AtpgOptions serial = determinism_options(1);
  AtpgOptions hw = determinism_options(0);
  AtpgEngine e1(c.netlist, c.reset, serial);
  AtpgEngine e2(c.netlist, c.reset, hw);
  const auto faults = input_stuck_faults(c.netlist);
  expect_identical(e1.run(faults), e2.run(faults), 0, "pipeline2/hw");
}

// The parallel engine must keep the serial engine's quality guarantees:
// every committed sequence still detects its fault under the exact
// simulator, whichever phase got the credit.
TEST(ParallelEngine, SequencesDetectTheirFaultsAtFourThreads) {
  const auto synth = benchmark_circuit("rpdft", SynthStyle::SpeedIndependent);
  AtpgOptions options = determinism_options(4);
  AtpgEngine engine(synth.netlist, synth.reset_state, options);
  const AtpgResult result = engine.run(input_stuck_faults(synth.netlist));
  EXPECT_GE(result.stats.coverage(), 0.9);
  for (const FaultOutcome& outcome : result.outcomes) {
    if (outcome.covered_by == CoveredBy::None) continue;
    ASSERT_GE(outcome.sequence_index, 0);
    const TestSequence& seq = result.sequences[outcome.sequence_index];
    const auto path = engine.follow(seq);
    ASSERT_TRUE(path.has_value());
    FaultSimulator sim(synth.netlist, outcome.fault, synth.reset_state);
    DetectStatus status = sim.status();
    for (std::size_t t = 0;
         t < seq.vectors.size() && status == DetectStatus::Undetermined; ++t)
      status = sim.step(seq.vectors[t],
                        engine.graph().states[(*path)[t + 1]]);
    EXPECT_EQ(status, DetectStatus::Detected)
        << outcome.fault.describe(synth.netlist);
  }
}

TEST(ParallelEngine, ShardAccountingCoversEverySearchedFault) {
  // Engine-level stress of the stealing fan-out: with the random phase off,
  // every fault goes through a 3-phase search on SOME shard.  The per-shard
  // faults_done counters must sum to exactly the batch size — a block that
  // was stolen still runs exactly once, a block that was never stolen still
  // runs exactly once — and the steal telemetry must be internally
  // consistent regardless of how the whale-vs-thief timing played out.
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  AtpgOptions options = determinism_options(4);
  options.random_budget = 0;
  AtpgEngine engine(synth.netlist, synth.reset_state, options);
  const AtpgResult result = engine.run(faults);
  EXPECT_GT(result.stats.by_three_phase, 0u);

  // A worker builds its shard lazily, when it first claims a block, so how
  // many shards exist is scheduling too: worker 0 may search every fault
  // before the pool threads start.  Worker 0 starts on its own deque at
  // once, and a pool worker's shard exists only if it claimed a block, so
  // every reported shard searched something.
  const std::vector<ShardBddStats> shards = engine.shard_bdd_stats();
  ASSERT_GE(shards.size(), 1u);
  ASSERT_LE(shards.size(), 4u);
  std::size_t searched = 0;
  for (const ShardBddStats& shard : shards) {
    EXPECT_GT(shard.faults_done, 0u) << "shard " << shard.shard;
    searched += shard.faults_done;
  }
  EXPECT_EQ(searched, faults.size());
  // A worker cannot steal more blocks than it completed faults (each stolen
  // block contains at least one fault it then searched).  How many steals
  // happen is scheduling, not contract.
  for (const ShardBddStats& shard : shards)
    EXPECT_LE(shard.blocks_stolen, shard.faults_done) << "shard "
                                                      << shard.shard;
}

// --- cancellation ------------------------------------------------------------
// A CancelToken fired at a fixed 3-phase commit index must (a) stop the run
// between faults, (b) leave a deterministic partial result that is a prefix
// of the full run — same leading sequences, every committed outcome final —
// and (c) stay byte-identical across thread counts, because the trigger
// event (the k-th commit in the deterministic merge) is scheduling-free.

/// Fires the token when the n-th ThreePhase commit is reported.
class CancelAtCommit : public RunObserver {
 public:
  CancelAtCommit(CancelToken token, std::size_t commits)
      : token_(std::move(token)), remaining_(commits) {}
  void on_fault_resolved(std::size_t /*index*/,
                         const FaultOutcome& outcome) override {
    if (outcome.covered_by == CoveredBy::ThreePhase && remaining_ > 0 &&
        --remaining_ == 0)
      token_.request_cancel();
  }

 private:
  CancelToken token_;
  std::size_t remaining_;
};

void expect_prefix_of(const AtpgResult& partial, const AtpgResult& full,
                      const std::string& name) {
  SCOPED_TRACE(name);
  EXPECT_TRUE(partial.cancelled);
  EXPECT_FALSE(full.cancelled);
  ASSERT_LT(partial.sequences.size(), full.sequences.size());
  for (std::size_t s = 0; s < partial.sequences.size(); ++s)
    EXPECT_EQ(partial.sequences[s], full.sequences[s]) << "sequence " << s;
  ASSERT_EQ(partial.outcomes.size(), full.outcomes.size());
  for (std::size_t j = 0; j < partial.outcomes.size(); ++j) {
    if (partial.outcomes[j].covered_by != CoveredBy::None) {
      // Committed before the cancel: final, and identical to the full run.
      EXPECT_EQ(partial.outcomes[j], full.outcomes[j]) << "fault " << j;
    } else {
      // Unresolved at cancel time: the full run can only have covered it
      // with a sequence the partial run never committed.
      EXPECT_TRUE(full.outcomes[j].covered_by == CoveredBy::None ||
                  full.outcomes[j].sequence_index >=
                      static_cast<int>(partial.sequences.size()))
          << "fault " << j;
    }
  }
}

TEST(Cancellation, MidMergePartialResultIsAPrefixAcrossThreads) {
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  std::optional<AtpgResult> base_partial;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    AtpgOptions options = determinism_options(threads);
    AtpgEngine full_engine(synth.netlist, synth.reset_state, options);
    const AtpgResult full = full_engine.run(faults);
    ASSERT_GE(full.stats.by_three_phase, 3u);  // enough commits to cut short

    AtpgEngine engine(synth.netlist, synth.reset_state, options);
    CancelToken token;
    CancelAtCommit observer(token, 2);
    const AtpgResult partial = engine.run(faults, &observer, &token);
    EXPECT_EQ(partial.stats.by_three_phase, 2u);
    expect_prefix_of(partial, full, "mmu/bd threads=" + std::to_string(threads));
    // A new run on the same engine carries nothing over from the cancelled
    // one and lands on the uncancelled result.
    expect_identical(full, engine.run(faults), threads, "mmu/bd rerun");

    if (!base_partial) {
      base_partial = partial;
    } else {
      expect_identical(*base_partial, partial, threads, "mmu/bd partial");
      EXPECT_EQ(base_partial->cancelled, partial.cancelled);
    }
  }
}

TEST(Cancellation, TokenAlreadyFiredYieldsEmptyRun) {
  const fixtures::Circuit c = fixtures::celem();
  AtpgEngine engine(c.netlist, c.reset, determinism_options(2));
  CancelToken token;
  token.request_cancel();
  const AtpgResult result = engine.run(input_stuck_faults(c.netlist), nullptr,
                                       &token);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.stats.covered, 0u);
  EXPECT_TRUE(result.sequences.empty());
}

/// Fires the token as the random phase begins.
class CancelAtRandomPhase : public RunObserver {
 public:
  explicit CancelAtRandomPhase(CancelToken token) : token_(std::move(token)) {}
  void on_phase(RunPhase phase) override {
    if (phase == RunPhase::RandomTpg) token_.request_cancel();
  }

 private:
  CancelToken token_;
};

TEST(Cancellation, CancelDuringRandomPhaseCommitsNoWalk) {
  // A cancel fired during the random pass commits no walk: the empty
  // prefix, at every thread count.  The simulators are then partly built,
  // and the skipped merge must not touch them; a new run on the same engine
  // starts from scratch and finishes the job.
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  std::optional<AtpgResult> base_partial;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    AtpgOptions options = determinism_options(threads);
    options.random_budget = 512;
    options.random_walk_len = 6;
    AtpgEngine full_engine(synth.netlist, synth.reset_state, options);
    const AtpgResult full = full_engine.run(faults);
    ASSERT_GT(full.stats.by_random, 0u);

    AtpgEngine engine(synth.netlist, synth.reset_state, options);
    CancelToken token;
    CancelAtRandomPhase observer(token);
    const AtpgResult partial = engine.run(faults, &observer, &token);
    EXPECT_TRUE(partial.sequences.empty());
    EXPECT_EQ(partial.stats.covered, 0u);
    expect_prefix_of(partial, full,
                     "mmu/bd threads=" + std::to_string(threads));
    if (!base_partial)
      base_partial = partial;
    else
      expect_identical(*base_partial, partial, threads, "mmu/bd random cancel");
    expect_identical(full, engine.run(faults), threads, "mmu/bd rerun");
  }
}

// --- deterministic per-fault budgets -----------------------------------------

TEST(ParallelDeterminism, TightDeterministicCapsGiveUpIdenticallyAcrossThreads) {
  // Starve the differentiation BFS so searches truncate: the truncations are
  // cut by diff_node_cap (a pure function of the input), so the resulting
  // gave_up population must be nonzero AND byte-identical at every thread
  // count — a cap blowout may never depend on scheduling.
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  std::optional<AtpgResult> base;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    AtpgOptions options = determinism_options(threads);
    options.random_budget = 0;  // force every fault through the 3-phase search
    options.diff_node_cap = 10;
    AtpgEngine engine(synth.netlist, synth.reset_state, options);
    const AtpgResult result = engine.run(faults);
    EXPECT_GT(result.stats.gave_up, 0u);
    for (std::size_t j = 0; j < result.outcomes.size(); ++j)
      if (result.outcomes[j].gave_up) {
        EXPECT_EQ(result.outcomes[j].covered_by, CoveredBy::None);
        EXPECT_FALSE(result.outcomes[j].proven_redundant);
      }
    if (!base)
      base = result;
    else
      expect_identical(*base, result, threads, "mmu/bd tight-caps");
  }
}

TEST(ParallelDeterminism, DisabledWallClockMatchesHugeWallClockBudget) {
  // per_fault_seconds = 0 (disabled) and a budget no search can ever trip
  // must be indistinguishable: the wall clock is a fallback, never the
  // binding cap on a healthy run.
  const auto synth = benchmark_circuit("mmu", SynthStyle::BoundedDelay);
  const auto faults = input_stuck_faults(synth.netlist);
  AtpgOptions disabled = determinism_options(4);
  disabled.per_fault_seconds = 0;
  AtpgOptions huge = determinism_options(4);
  huge.per_fault_seconds = 1e9;
  AtpgEngine a(synth.netlist, synth.reset_state, disabled);
  AtpgEngine b(synth.netlist, synth.reset_state, huge);
  expect_identical(a.run(faults), b.run(faults), 4, "mmu/bd wall-clock");
}

// --- the concurrency primitives themselves -----------------------------------

TEST(StealingWorkQueue, DrainsEveryItemExactlyOnceAcrossThreads) {
  std::vector<std::size_t> items(10000);
  std::iota(items.begin(), items.end(), std::size_t{0});
  StealingWorkQueue<std::size_t> queue(std::move(items),
                                       work_block_size(10000, 4), 4);
  std::vector<std::atomic<int>> claimed(10000);
  {
    ThreadPool pool(4);
    for (std::size_t w = 0; w < 4; ++w)
      pool.submit([&, w] {
        while (const auto block = queue.pop_block(w))
          for (const std::size_t i : *block) claimed[i].fetch_add(1);
      });
    pool.wait_idle();
  }
  for (std::size_t i = 0; i < claimed.size(); ++i)
    ASSERT_EQ(claimed[i].load(), 1) << "item " << i;
}

TEST(StealingWorkQueue, ThievesDrainAnIdleOwnersDeque) {
  // Deterministic single-threaded steal path: worker 0 never pops, so its
  // seeded blocks are reachable ONLY by stealing.  Workers 1..3 must drain
  // the whole batch anyway, and the steal telemetry must account for every
  // block that crossed a deque boundary.
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 0);
  StealingWorkQueue<int> queue(std::move(items), /*block_size=*/4,
                               /*workers=*/4);
  ASSERT_EQ(queue.num_blocks(), 16u);  // 4 seeded blocks per worker
  std::vector<int> claimed(64, 0);
  bool any = true;
  while (any) {
    any = false;
    for (const std::size_t w : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}})
      if (const auto block = queue.pop_block(w)) {
        any = true;
        for (const int i : *block) ++claimed[i];
      }
  }
  for (std::size_t i = 0; i < claimed.size(); ++i)
    EXPECT_EQ(claimed[i], 1) << "item " << i;
  EXPECT_EQ(queue.steals(0), 0u);
  EXPECT_EQ(queue.total_steals(), 4u);  // exactly worker 0's seeded blocks
  EXPECT_FALSE(queue.pop_block(0).has_value());  // drained for the owner too
}

TEST(StealingWorkQueue, WhaleOwnerDonatesItsUntouchedBlocks) {
  // The heavy-tail scenario the scheduler exists for: worker 0 claims one
  // block and then stalls on it (a "whale" fault) while workers 1..3 run.
  // The thieves must finish worker 0's untouched blocks; nothing may strand.
  std::vector<std::size_t> items(64);
  std::iota(items.begin(), items.end(), std::size_t{0});
  StealingWorkQueue<std::size_t> queue(std::move(items), /*block_size=*/4,
                                       /*workers=*/4);
  std::vector<std::atomic<int>> claimed(64);
  const auto whale = queue.pop_block(0);  // worker 0 starts its first block…
  ASSERT_TRUE(whale.has_value());
  for (const std::size_t i : *whale) claimed[i].fetch_add(1);
  {  // …and is stuck on it for the entire lifetime of the other workers.
    ThreadPool pool(3);
    for (std::size_t w = 1; w < 4; ++w)
      pool.submit([&, w] {
        while (const auto block = queue.pop_block(w))
          for (const std::size_t i : *block) claimed[i].fetch_add(1);
      });
    pool.wait_idle();
  }
  EXPECT_FALSE(queue.pop_block(0).has_value());  // whale finds nothing left
  for (std::size_t i = 0; i < claimed.size(); ++i)
    ASSERT_EQ(claimed[i].load(), 1) << "item " << i;
  // Worker 0 was seeded 4 blocks and ran 1; the other 3 were stealable only.
  EXPECT_GE(queue.total_steals(), 3u);
  EXPECT_EQ(queue.steals(0), 0u);
}

TEST(StealingWorkQueue, LastBlockRaceResolvesToExactlyOneClaim) {
  // One block, four workers: the seeding gives it to worker 3, so three
  // thieves race the owner on the same packed cursor.  Exactly one claim
  // may succeed.  Iterate to give TSan and the race a real chance.
  for (int round = 0; round < 200; ++round) {
    StealingWorkQueue<int> queue({1, 2, 3}, /*block_size=*/8, /*workers=*/4);
    ASSERT_EQ(queue.num_blocks(), 1u);
    std::atomic<int> wins{0};
    {
      ThreadPool pool(4);
      for (std::size_t w = 0; w < 4; ++w)
        pool.submit([&, w] {
          if (queue.pop_block(w).has_value()) wins.fetch_add(1);
        });
      pool.wait_idle();
    }
    ASSERT_EQ(wins.load(), 1) << "round " << round;
    ASSERT_FALSE(queue.pop_block(0).has_value());
  }
}

TEST(StealingWorkQueue, EmptyQueueYieldsNulloptForEveryWorker) {
  StealingWorkQueue<int> queue({}, /*block_size=*/4, /*workers=*/4);
  EXPECT_EQ(queue.num_blocks(), 0u);
  for (std::size_t w = 0; w < 4; ++w)
    EXPECT_FALSE(queue.pop_block(w).has_value()) << "worker " << w;
  EXPECT_EQ(queue.total_steals(), 0u);
}

TEST(StealingWorkQueue, BlockSizeHeuristic) {
  EXPECT_EQ(work_block_size(0, 1), 1u);
  EXPECT_EQ(work_block_size(100, 1), 100u);   // serial: one block
  EXPECT_EQ(work_block_size(100, 4), 6u);     // ~4 blocks per worker
  EXPECT_EQ(work_block_size(3, 8), 1u);       // never zero
  EXPECT_EQ(work_block_size(5, 4), 1u);       // items barely >= workers
}

TEST(StealingWorkQueue, EveryWorkerSeededWhenItemsReachWorkerCount) {
  // The rounding guarantee: items >= workers must split into at least
  // `workers` blocks, so the contiguous deal-out seeds every deque.
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4},
                                    std::size_t{8}, std::size_t{16}}) {
    for (const std::size_t items :
         {workers, workers + 1, 2 * workers - 1, std::size_t{100},
          std::size_t{1000}}) {
      if (items < workers) continue;
      const std::size_t size = work_block_size(items, workers);
      ASSERT_GE(size, 1u);
      const std::size_t blocks = (items + size - 1) / size;
      EXPECT_GE(blocks, workers)
          << "items=" << items << " workers=" << workers << " size=" << size;
    }
  }
}

TEST(ThreadPool, WaitIdleSeesAllSubmittedWork) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
  // The pool stays usable after an idle barrier.
  for (int i = 0; i < 10; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 110);
}

}  // namespace
}  // namespace xatpg
