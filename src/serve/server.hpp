// The xatpg ATPG daemon: a long-lived server that runs Sessions on behalf of
// newline-delimited-JSON clients (see serve/protocol.hpp for the frames and
// docs/PROTOCOL.md for the normative spec).
//
// Architecture
// ------------
//   reader threads (one per connection)
//     parse request lines, answer ping/stats inline, and ADMIT submits:
//     canonicalize the circuit, probe the cross-request result cache (a hit
//     is answered right here, never consuming a queue slot), then try_push
//     onto the bounded job queue — a full queue is a typed ResourceError
//     back to the client, never an unbounded buffer or a hang.
//   worker pool (fixed size, config.workers)
//     pops jobs, builds a Session per job (one session per job — see the
//     contract in xatpg/session.hpp), runs it under the job's CancelToken
//     and cooperative budgets, streams progress frames if requested, and
//     inserts successful results into the cache.
//   cancellation
//     one CancelToken per job, fired by: an explicit {"op":"cancel"}, the
//     client's disconnect (reader EOF fires every in-flight token of that
//     connection), the per-job time budget (the watcher thread fires it
//     once a running job is past max_job_seconds), or server shutdown for
//     still-queued jobs.
//   shutdown
//     request_shutdown() is async-signal-safe (atomic store + self-pipe
//     write) so the CLI installs it directly as the SIGINT/SIGTERM action;
//     the serving loop then drains: in-flight jobs run to completion (or
//     to their time budget, which the watcher keeps enforcing), queued
//     jobs get cancelled frames, every connection gets a bye frame, and
//     the process exits 0.
//
// All frame writes to one connection go through a per-connection mutex so
// worker progress frames and reader error frames never interleave bytes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"
#include "xatpg/options.hpp"

namespace xatpg::serve {

struct ServeConfig {
  /// Worker threads executing jobs.  0 is a legal (test) configuration:
  /// jobs are admitted and queued but never executed, which makes
  /// queue-full admission behaviour deterministic to test.
  std::size_t workers = 1;
  /// Bounded job-queue depth; submissions beyond it are rejected with a
  /// typed ResourceError (admission control, not backpressure-by-hanging).
  std::size_t queue_capacity = 16;
  /// Byte cap of the cross-request result cache (0 disables caching).
  std::size_t cache_bytes = std::size_t{8} << 20;
  /// Per-job wall-clock budget, counted from the moment a worker starts the
  /// job (circuit build included; 0 = unlimited).  The server's watcher
  /// thread fires the job's CancelToken once the budget is spent; the run
  /// stops at its next cancel poll (per random walk, per fault) and the job
  /// is reported cancelled with reason "budget".
  double max_job_seconds = 0;
  /// Per-job node-budget ceiling: a request's diff_node_cap is clamped to
  /// this at admission (0 = no clamp).
  std::size_t max_diff_node_cap = 0;
  /// Longest accepted request line; longer lines are a typed error and the
  /// connection is closed (a client that overflows this is not framing).
  std::size_t max_request_bytes = std::size_t{4} << 20;
  /// Options a submit starts from (request "options" override these).
  AtpgOptions defaults;
};

/// Snapshot of server behaviour since start, exposed as the stats frame.
struct ServerStats {
  std::size_t submitted = 0;  ///< admitted submits (queued or cache-served)
  std::size_t completed = 0;  ///< result frames sent (incl. cache hits)
  std::size_t cancelled = 0;  ///< jobs ending cancelled (any reason)
  std::size_t rejected = 0;   ///< submits refused at admission (queue full)
  std::size_t failed = 0;     ///< jobs ending in a typed error
  std::size_t queue_depth = 0;
  std::size_t running = 0;    ///< jobs currently executing on workers
  CacheStats cache;
};

class Server {
 public:
  explicit Server(ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawn the worker pool.  Call once before attaching connections.
  void start();

  /// Serve one established byte stream (socketpair in tests, an accepted
  /// AF_UNIX connection, or stdin/stdout in pipe mode).  Spawns the reader
  /// thread and returns immediately.  `owns_fds` closes the fds at
  /// shutdown.
  void attach(int in_fd, int out_fd, bool owns_fds);

  /// Pipe mode: start(), serve stdin/stdout, block until a shutdown request
  /// or client EOF (whichever first, draining in-flight jobs), then
  /// shutdown().  Returns the process exit code (0 on clean drain).
  int serve_pipe();

  /// Socket mode: start(), listen on an AF_UNIX socket at `path` (an
  /// existing socket file is replaced), accept until a shutdown request,
  /// then shutdown().  Returns the process exit code.
  int serve_unix(const std::string& path);

  /// Async-signal-safe shutdown trigger: atomic store + self-pipe write,
  /// nothing else.  Safe to install directly as a signal action.
  void request_shutdown() noexcept;

  /// Drain and stop: cancels queued jobs, lets in-flight jobs finish,
  /// sends bye frames, joins every thread.  Idempotent; called by the
  /// destructor as a backstop.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;

  /// True when no job is queued or executing (the test suites' drain
  /// barrier).
  [[nodiscard]] bool drained() const;

 private:
  struct Connection;
  struct Job;
  class JobObserver;

  void reader_loop(std::shared_ptr<Connection> conn);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line);
  void admit_submit(const std::shared_ptr<Connection>& conn, Request request);
  void worker_loop();
  void execute(const std::shared_ptr<Job>& job);
  /// Body of watcher_: relays the self-pipe into state_cv_ and, when
  /// max_job_seconds is set, cancels running jobs past their budget until
  /// the workers have drained.
  void watch();
  void cancel_overdue_jobs();
  void finish_job(const std::shared_ptr<Job>& job);

  const ServeConfig config_;
  ResultCache cache_;

  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> shut_down_{false};
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe; never drained, POLLIN = stop

  // Job queue + worker pool.
  mutable Mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_ XATPG_GUARDED_BY(queue_mu_);
  /// Jobs executing on workers (their Job::started is set before they are
  /// added here, and read by the budget check under the same lock).
  std::vector<std::shared_ptr<Job>> running_ XATPG_GUARDED_BY(queue_mu_);
  bool stop_workers_ XATPG_GUARDED_BY(queue_mu_) = false;
  std::vector<std::thread> workers_;

  // Connections + readers.  Connections are append-only until shutdown —
  // a daemon's connection count is bounded by its clients, and keeping the
  // records lets shutdown deliver bye frames to every live stream.
  mutable Mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_ XATPG_GUARDED_BY(conns_mu_);
  std::vector<std::thread> readers_ XATPG_GUARDED_BY(conns_mu_);

  // State watched by the serving loops (serve_pipe/serve_unix): notified on
  // shutdown requests, reader exits and job completions.
  mutable Mutex state_mu_;
  std::condition_variable state_cv_;
  std::thread watcher_;  ///< runs watch()

  // Monotonic counters (atomics: bumped from readers and workers alike).
  std::atomic<std::size_t> submitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> cancelled_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> failed_{0};
};

}  // namespace xatpg::serve
