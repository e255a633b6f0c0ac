// xatpg::Session — the stable public facade of the library.
//
// A Session owns one circuit, its test-mode reset state, and the symbolic
// ATPG engine (CSSG abstraction + per-worker BDD shards) built for it.  It
// is the supported way to drive the paper's flow from outside the library:
//
//   auto session = xatpg::Session::from_benchmark("chu150",
//                                                 xatpg::SynthStyle::SpeedIndependent);
//   if (!session) { /* session.error() is a typed xatpg::Error */ }
//   auto result = session->run(session->input_stuck_faults());
//   std::cout << result->stats.coverage();
//
// Lifecycle
// ---------
//  1. Construct through a factory (from_xnl / from_xnl_file / from_bench /
//     from_bench_file / from_benchmark).  All construction failures —
//     malformed text, failed synthesis, degenerate options, blown resource
//     caps — come back as typed errors; nothing aborts or exits.
//  2. run(faults) runs the full flow (random TPG -> 3-phase symbolic ATPG
//     -> cross fault simulation) on that fault list and returns its result,
//     optionally streaming progress to a RunObserver and honouring a
//     CancelToken (see xatpg/progress.hpp for the contract).  Each run is a
//     self-contained pass: its result equals a fresh Session's run on the
//     same faults.  A cancelled run is finished by running its faults again.
//  3. run() may be called again, on the same or another fault list (the
//     output universe, then the input one): the CSSG and the worker BDD
//     shards persist across runs on the same Session.  Test-program export
//     and statistics are read back between runs.
//
// Concurrency contract — ONE SESSION PER JOB
// ------------------------------------------
// A Session is single-threaded: at most one run() may be active on it at
// a time, and the accessors are only safe between runs on the thread that
// owns the Session.  Servers and worker pools must give
// every concurrent job its own Session (sessions for the same circuit are
// cheap relative to a run, and results are byte-identical across them) —
// sharing one Session across workers is NOT made safe by any external
// locking of run() alone, because accessors like bdd_stats() also touch
// engine state.  The only cross-thread operation supported is firing a run's
// CancelToken, which is safe from any thread at any time.
//
// Violations are loud, not UB: entering run() while another run is active
// on the same Session — from another thread, or reentrantly from inside an
// observer callback — throws xatpg::CheckError (a std::logic_error) instead
// of corrupting engine state.  Like BadExpectedAccess, this reports a
// programming error in the consumer, so it is deliberately an exception
// rather than a typed Error the caller might be tempted to retry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "xatpg/error.hpp"
#include "xatpg/options.hpp"
#include "xatpg/progress.hpp"
#include "xatpg/types.hpp"

namespace xatpg {

class Session {
 public:
  // --- construction (typed-error factories) ---------------------------------

  /// Parse a circuit from .xnl text.  The reset state is the stable state
  /// reached by relaxing the all-false assignment; a circuit that cannot
  /// settle from there yields ResourceError.
  [[nodiscard]] static Expected<Session> from_xnl(const std::string& text,
                                    const AtpgOptions& options = {});

  /// Like from_xnl, reading the text from a file (missing/unreadable file
  /// yields ResourceError).
  [[nodiscard]] static Expected<Session> from_xnl_file(const std::string& path,
                                         const AtpgOptions& options = {});

  /// Parse a circuit from ISCAS-style .bench text (INPUT/OUTPUT/assignment
  /// lines).  DFF is rejected with ParseError — this library models
  /// asynchronous (clockless) logic; combinational .bench circuits settle
  /// and test like any other netlist.
  [[nodiscard]] static Expected<Session> from_bench(const std::string& text,
                                      const AtpgOptions& options = {});

  /// Like from_bench, reading the text from a file.
  [[nodiscard]] static Expected<Session> from_bench_file(const std::string& path,
                                           const AtpgOptions& options = {});

  /// Synthesize one of the named benchmark reconstructions (Table 1/2
  /// suites, fig1a/fig1b).  Unknown names yield OptionError; a failed
  /// synthesis yields SynthError.
  [[nodiscard]] static Expected<Session> from_benchmark(
      const std::string& name,
      SynthStyle style = SynthStyle::SpeedIndependent,
      const AtpgOptions& options = {});

  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  // --- circuit --------------------------------------------------------------

  [[nodiscard]] const std::string& circuit_name() const;
  [[nodiscard]] std::size_t num_inputs() const;
  [[nodiscard]] std::size_t num_outputs() const;
  [[nodiscard]] std::size_t num_signals() const;
  /// Total gate input pins (the input stuck-at fault sites).
  [[nodiscard]] std::size_t num_pins() const;
  /// The circuit in native .xnl text (round-trips through from_xnl).
  [[nodiscard]] std::string circuit_xnl() const;
  /// The stable test-mode reset state (one bit per signal).
  [[nodiscard]] const std::vector<bool>& reset_state() const;

  [[nodiscard]] const AtpgOptions& options() const;

  // --- CSSG abstraction -----------------------------------------------------

  /// Figure-2-style statistics of the CSSG built for this circuit.
  [[nodiscard]] const CssgStats& cssg_stats() const;
  /// Graphviz dump of the explicit CSSG (stable states + valid vectors).
  [[nodiscard]] std::string cssg_dot() const;

  // --- fault universes ------------------------------------------------------

  /// All input (gate-pin) stuck-at faults: 2 per pin.
  [[nodiscard]] std::vector<Fault> input_stuck_faults() const;
  /// All output (signal) stuck-at faults: 2 per signal.
  [[nodiscard]] std::vector<Fault> output_stuck_faults() const;
  /// "pin c.1 s-a-0" / "out y s-a-1" style description.
  [[nodiscard]] std::string describe(const Fault& fault) const;

  // --- runs -----------------------------------------------------------------

  /// Run the full flow on `faults`, a self-contained pass (see the file
  /// header).  Streams events to `observer` and stops cooperatively between
  /// faults when `cancel` fires (the partial result is deterministic: a
  /// prefix of the uncancelled run's).  Invalid faults (out-of-range ids)
  /// yield OptionError.
  [[nodiscard]] Expected<AtpgResult> run(const std::vector<Fault>& faults,
                           RunObserver* observer = nullptr,
                           const CancelToken* cancel = nullptr);

  // --- export & accounting --------------------------------------------------

  /// Tester-facing export of `result`'s sequences: vectors and expected
  /// primary-output responses per cycle.  Sequences that are not valid CSSG
  /// paths of this circuit yield OptionError.
  [[nodiscard]] Expected<std::string> test_program(const AtpgResult& result) const;

  /// BDD accounting of the engine's own symbolic context (shard 0):
  /// allocated-node watermark, live nodes after a garbage collection,
  /// sifting passes, computed-cache hit counters, and the unique-table load
  /// factor.
  [[nodiscard]] ShardBddStats bdd_stats() const;

  /// BDD accounting for EVERY built symbolic shard — shard 0 plus each
  /// worker shard a multi-threaded run lazily constructed — including
  /// per-shard 3-phase searches completed and work blocks stolen during the
  /// most recent run.  Accounting that must not miss worker-shard activity
  /// (e.g. total sifting passes across a parallel run) has to sum over this
  /// rather than read bdd_stats() alone.
  [[nodiscard]] std::vector<ShardBddStats> shard_bdd_stats() const;

  /// Run one dynamic-reordering (sifting) pass on the engine's own symbolic
  /// context now, regardless of the session's ReorderPolicy, and return the
  /// live node count after the pass.  Results of past and future runs are
  /// unaffected (every engine query is canonicalized to be order-
  /// independent); only node counts and timing change.  The perf harness
  /// records this as the post-sift size.
  std::size_t sift_now();

 private:
  struct Impl;
  explicit Session(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace xatpg
