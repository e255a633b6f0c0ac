#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "benchmarks/benchmarks.hpp"
#include "netlist/netlist.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "xatpg/session.hpp"

namespace xatpg::serve {

namespace {

/// How often the watcher checks running jobs against max_job_seconds.
constexpr int kBudgetTickMs = 20;

/// Why a job ended cancelled (stored as an atomic int on the job; first
/// writer wins so the reported reason matches the cause that fired first).
enum JobCancelReason : int {
  kNotCancelled = 0,
  kClientCancel,  ///< explicit {"op":"cancel"}
  kDisconnect,    ///< client closed its stream mid-run
  kShutdown,      ///< server shutting down before the job started
  kBudget,        ///< per-job time budget exceeded
};

const char* cancel_reason_name(int reason) {
  switch (reason) {
    case kClientCancel: return "cancel";
    case kDisconnect: return "disconnect";
    case kShutdown: return "shutdown";
    case kBudget: return "budget";
    default: return "cancelled";
  }
}

/// SIGPIPE would kill the daemon the first time it writes to a client that
/// disconnected; with it ignored, write() fails with EPIPE and the
/// connection is retired gracefully.
void ignore_sigpipe_once() {
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

/// Best-effort id recovery for error frames on requests parse_request
/// rejected: correlation beats a blank id, but a malformed line may simply
/// not have one.
std::string best_effort_id(const std::string& line) {
  try {
    const json::Value root = json::parse(line);
    if (root.type == json::Value::Type::Object)
      return json::string_field(root, "id");
  } catch (const CheckError&) {
  }
  return {};
}

}  // namespace

// --- connection -------------------------------------------------------------

struct Server::Connection {
  int in_fd = -1;
  int out_fd = -1;
  bool owns_fds = false;
  std::atomic<bool> alive{true};

  Mutex write_mu;
  Mutex jobs_mu;
  /// Tokens of this connection's admitted-but-unfinished jobs, so
  /// disconnect and {"op":"cancel"} can reach them.
  std::map<std::string, std::shared_ptr<Job>> active
      XATPG_GUARDED_BY(jobs_mu);

  /// Write one complete frame; serialized per connection so concurrent
  /// worker/reader frames never interleave bytes.  A failed write (client
  /// gone) retires the connection.
  bool send(const std::string& frame) {
    MutexLock lock(write_mu);
    return send_locked(frame);
  }

  /// send() body for callers that already hold write_mu (admission holds it
  /// across queue-push + ack so a fast worker's result frame cannot reach
  /// the wire before the ack does).
  bool send_locked(const std::string& frame) XATPG_REQUIRES(write_mu) {
    if (!alive.load(std::memory_order_acquire)) return false;
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n =
          ::write(out_fd, frame.data() + off, frame.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        alive.store(false, std::memory_order_release);
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
};

// --- job --------------------------------------------------------------------

struct Server::Job {
  std::string id;
  Request request;
  std::shared_ptr<Connection> conn;
  std::string canonical;      ///< canonicalized circuit identity
  std::string circuit_label;  ///< human label for the result payload
  std::string key;            ///< cross-request cache key
  CancelToken cancel;
  std::atomic<int> reason{kNotCancelled};
  /// When a worker took the job (guarded by Server::queue_mu_ while the job
  /// is in running_).
  std::chrono::steady_clock::time_point started;

  void cancel_with(int reason_code) {
    int expected = kNotCancelled;
    reason.compare_exchange_strong(expected, reason_code,
                                   std::memory_order_relaxed);
    cancel.request_cancel();
  }
};

/// Per-job observer on the run's calling thread, attached when the client
/// asked for progress frames: forwards each snapshot as one.
class Server::JobObserver : public RunObserver {
 public:
  explicit JobObserver(std::shared_ptr<Job> job) : job_(std::move(job)) {}

  void on_progress(const RunProgress& progress) override {
    if (job_->conn->alive.load(std::memory_order_acquire) &&
        !job_->conn->send(progress_frame(job_->id, progress)))
      job_->cancel_with(kDisconnect);
  }

 private:
  std::shared_ptr<Job> job_;
};

// --- lifecycle --------------------------------------------------------------

Server::Server(ServeConfig config)
    : config_(config), cache_(config.cache_bytes) {
  ignore_sigpipe_once();
  XATPG_CHECK_MSG(::pipe(wake_pipe_) == 0, "serve: cannot create wake pipe");
}

Server::~Server() { shutdown(); }

void Server::start() {
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  watcher_ = std::thread([this] { watch(); });
}

void Server::watch() {
  // Relay the async-signal-safe self-pipe into the condition variable the
  // serving loops wait on (notify_all is not legal from a signal handler).
  // With a budget, wake every tick to check the running jobs against it.
  const bool budgeted = config_.max_job_seconds > 0;
  struct pollfd pfd = {wake_pipe_[0], POLLIN, 0};
  while (true) {
    const int ready = ::poll(&pfd, 1, budgeted ? kBudgetTickMs : -1);
    if (ready > 0 || (ready < 0 && errno != EINTR)) break;
    if (ready == 0) cancel_overdue_jobs();
  }
  {
    MutexLock lock(state_mu_);
    state_cv_.notify_all();
  }
  // The drain waits for in-flight jobs, so their budgets still bind.  (The
  // pipe stays readable from here on, so the ticks are plain sleeps.)
  while (budgeted) {
    {
      MutexLock lock(queue_mu_);
      if (stop_workers_ && queue_.empty() && running_.empty()) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kBudgetTickMs));
    cancel_overdue_jobs();
  }
}

void Server::cancel_overdue_jobs() {
  const auto now = std::chrono::steady_clock::now();
  const std::chrono::duration<double> budget(config_.max_job_seconds);
  MutexLock lock(queue_mu_);
  for (const std::shared_ptr<Job>& job : running_)
    if (now - job->started > budget) job->cancel_with(kBudget);
}

void Server::request_shutdown() noexcept {
  shutting_down_.store(true, std::memory_order_release);
  const char byte = 1;
  // The pipe is intentionally never drained: one byte keeps POLLIN raised
  // for every poller forever, which is the broadcast we want.
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Server::shutdown() {
  if (shut_down_.exchange(true)) return;
  request_shutdown();

  // Cancel everything still queued; in-flight jobs drain to completion.
  std::deque<std::shared_ptr<Job>> queued;
  {
    MutexLock lock(queue_mu_);
    queued.swap(queue_);
    stop_workers_ = true;
    queue_cv_.notify_all();
  }
  for (const std::shared_ptr<Job>& job : queued) {
    job->cancel_with(kShutdown);
    job->conn->send(cancelled_frame(job->id, cancel_reason_name(kShutdown)));
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    finish_job(job);
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  if (watcher_.joinable()) watcher_.join();

  // Every live stream gets a farewell, then the readers (woken by the
  // self-pipe) are joined and owned fds closed.
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  {
    MutexLock lock(conns_mu_);
    conns = conns_;
    readers.swap(readers_);
  }
  for (const std::shared_ptr<Connection>& conn : conns)
    conn->send(bye_frame());
  for (std::thread& reader : readers) reader.join();
  for (const std::shared_ptr<Connection>& conn : conns) {
    conn->alive.store(false, std::memory_order_release);
    if (conn->owns_fds) {
      ::close(conn->in_fd);
      if (conn->out_fd != conn->in_fd) ::close(conn->out_fd);
    }
  }
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

// --- serving loops ----------------------------------------------------------

void Server::attach(int in_fd, int out_fd, bool owns_fds) {
  auto conn = std::make_shared<Connection>();
  conn->in_fd = in_fd;
  conn->out_fd = out_fd;
  conn->owns_fds = owns_fds;
  MutexLock lock(conns_mu_);
  conns_.push_back(conn);
  readers_.emplace_back([this, conn] { reader_loop(conn); });
}

int Server::serve_pipe() {
  start();
  attach(STDIN_FILENO, STDOUT_FILENO, /*owns_fds=*/false);
  std::shared_ptr<Connection> conn;
  {
    MutexLock lock(conns_mu_);
    conn = conns_.back();
  }
  {
    MutexLock lock(state_mu_);
    // Exit on an explicit shutdown request, or once the client closed the
    // pipe and everything it submitted has drained.
    lock.wait(state_cv_, [&] {
      return shutting_down_.load(std::memory_order_acquire) ||
             (!conn->alive.load(std::memory_order_acquire) && drained());
    });
  }
  shutdown();
  return 0;
}

int Server::serve_unix(const std::string& path) {
  start();
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  XATPG_CHECK_MSG(listen_fd >= 0, "serve: cannot create AF_UNIX socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  XATPG_CHECK_MSG(path.size() < sizeof(addr.sun_path),
                  "serve: socket path too long: " << path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  XATPG_CHECK_MSG(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
                  "serve: cannot bind '" << path << "': " << std::strerror(errno));
  XATPG_CHECK_MSG(::listen(listen_fd, 64) == 0, "serve: listen failed");

  while (!shutting_down_.load(std::memory_order_acquire)) {
    struct pollfd pfds[2] = {{listen_fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(pfds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents != 0) break;  // shutdown requested
    if ((pfds[0].revents & POLLIN) != 0) {
      const int client = ::accept(listen_fd, nullptr, nullptr);
      if (client >= 0) attach(client, client, /*owns_fds=*/true);
    }
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
  shutdown();
  return 0;
}

// --- reader side ------------------------------------------------------------

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  char chunk[4096];
  while (!shutting_down_.load(std::memory_order_acquire) &&
         conn->alive.load(std::memory_order_acquire)) {
    struct pollfd pfds[2] = {{conn->in_fd, POLLIN, 0},
                             {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(pfds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents != 0) return;  // shutdown: bye is sent centrally
    if (pfds[0].revents == 0) continue;
    const ssize_t n = ::read(conn->in_fd, chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF or error: the client is gone
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > config_.max_request_bytes &&
        buffer.find('\n') == std::string::npos) {
      conn->send(error_frame(
          "", Error{ErrorCode::ResourceError,
                    "request line exceeds " +
                        std::to_string(config_.max_request_bytes) +
                        " bytes"}));
      break;  // a client that overflows the line cap is not framing
    }
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) handle_line(conn, line);
    }
    buffer.erase(0, start);
  }
  // Shutdown observed at the loop condition (the shutdown op arrived on
  // THIS connection): same as the wake-pipe path above — the connection is
  // still live, and shutdown() sends the farewell centrally.
  if (shutting_down_.load(std::memory_order_acquire)) return;
  // Disconnect: every job this client still has in flight is cancelled; the
  // jobs themselves are retired by the worker (or already drained).
  conn->alive.store(false, std::memory_order_release);
  std::vector<std::shared_ptr<Job>> orphans;
  {
    MutexLock lock(conn->jobs_mu);
    for (const auto& [id, job] : conn->active) orphans.push_back(job);
  }
  for (const std::shared_ptr<Job>& job : orphans) job->cancel_with(kDisconnect);
  MutexLock lock(state_mu_);
  state_cv_.notify_all();
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  Expected<Request> parsed = parse_request(line, config_.defaults);
  if (!parsed) {
    conn->send(error_frame(best_effort_id(line), parsed.error()));
    return;
  }
  Request& request = *parsed;
  switch (request.op) {
    case Request::Op::Ping:
      conn->send(pong_frame());
      return;
    case Request::Op::Stats: {
      const ServerStats s = stats();
      std::ostringstream os;
      os << "{\"v\":" << kProtocolVersion << ",\"type\":\"stats\""
         << ",\"submitted\":" << s.submitted << ",\"completed\":" << s.completed
         << ",\"cancelled\":" << s.cancelled << ",\"rejected\":" << s.rejected
         << ",\"failed\":" << s.failed << ",\"queue_depth\":" << s.queue_depth
         << ",\"running\":" << s.running << ",\"workers\":" << config_.workers
         << ",\"queue_capacity\":" << config_.queue_capacity
         << ",\"cache\":{\"hits\":" << s.cache.hits
         << ",\"misses\":" << s.cache.misses
         << ",\"insertions\":" << s.cache.insertions
         << ",\"evictions\":" << s.cache.evictions
         << ",\"entries\":" << s.cache.entries << ",\"bytes\":" << s.cache.bytes
         << ",\"capacity\":" << s.cache.capacity << "}}\n";
      conn->send(os.str());
      return;
    }
    case Request::Op::Shutdown:
      request_shutdown();
      return;
    case Request::Op::Cancel: {
      std::shared_ptr<Job> job;
      {
        MutexLock lock(conn->jobs_mu);
        const auto it = conn->active.find(request.id);
        if (it != conn->active.end()) job = it->second;
      }
      if (job == nullptr) {
        conn->send(error_frame(
            request.id, Error{ErrorCode::OptionError,
                              "no active job '" + request.id + "'"}));
        return;
      }
      job->cancel_with(kClientCancel);
      return;
    }
    case Request::Op::Submit:
      admit_submit(conn, std::move(request));
      return;
  }
}

void Server::admit_submit(const std::shared_ptr<Connection>& conn,
                          Request request) {
  if (shutting_down_.load(std::memory_order_acquire)) {
    conn->send(error_frame(request.id, Error{ErrorCode::ResourceError,
                                             "server is shutting down"}));
    return;
  }
  {
    MutexLock lock(conn->jobs_mu);
    if (conn->active.count(request.id) != 0) {
      conn->send(error_frame(
          request.id, Error{ErrorCode::OptionError,
                            "job id '" + request.id + "' already active"}));
      return;
    }
  }

  // Per-job node budget: clamp, don't reject — the job still runs, just
  // under the server's ceiling.
  if (config_.max_diff_node_cap != 0 &&
      request.options.diff_node_cap > config_.max_diff_node_cap)
    request.options.diff_node_cap = config_.max_diff_node_cap;
  if (const auto valid = request.options.validate(); !valid) {
    conn->send(error_frame(request.id, valid.error()));
    return;
  }

  // Canonicalize the circuit identity.  Text formats are parsed and
  // re-emitted as .xnl so formatting differences (whitespace, bench vs xnl
  // source) cannot fragment the cache; named benchmarks are identified by
  // (name, style) without paying for synthesis on the connection thread.
  auto job = std::make_shared<Job>();
  job->id = request.id;
  job->conn = conn;
  try {
    switch (request.format) {
      case Request::CircuitFormat::Xnl:
        job->canonical = write_xnl_string(parse_xnl_string(request.circuit_text));
        break;
      case Request::CircuitFormat::Bench:
        job->canonical =
            write_xnl_string(parse_bench_string(request.circuit_text));
        break;
      case Request::CircuitFormat::Benchmark:
        // Resolve the name NOW (cheap: STG spec only, no synthesis) so an
        // unknown benchmark is a synchronous OptionError, not an ack
        // followed by a worker-side failure.
        if (request.benchmark != "fig1a" && request.benchmark != "fig1b") {
          try {
            (void)benchmark_stg(request.benchmark);
          } catch (const CheckError&) {
            conn->send(error_frame(
                request.id,
                Error{ErrorCode::OptionError,
                      "unknown benchmark '" + request.benchmark + "'"}));
            return;
          }
        }
        job->canonical =
            std::string("benchmark\x1e") + request.benchmark + '\x1e' +
            (request.style == SynthStyle::BoundedDelay ? "bd" : "si");
        break;
    }
  } catch (const CheckError& e) {
    conn->send(
        error_frame(request.id, Error{ErrorCode::ParseError, e.what()}));
    return;
  }
  job->circuit_label = request.format == Request::CircuitFormat::Benchmark
                           ? request.benchmark
                           : "inline";
  job->key = cache_key(job->canonical, request.options, request.faults);
  job->request = std::move(request);

  // Cache probe at admission: popular circuits are answered on the
  // connection thread and never consume a queue slot or a worker.
  std::string payload;
  if (cache_.lookup(job->key, payload)) {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    conn->send(result_frame(job->id, payload, /*cached=*/true,
                            /*engine_ms=*/0.0));
    return;
  }

  // Register BEFORE queueing so a fast worker cannot finish the job (and
  // no-op its unregistration) before the registration lands.
  {
    MutexLock lock(conn->jobs_mu);
    if (!conn->active.emplace(job->id, job).second) {
      conn->send(error_frame(
          job->id, Error{ErrorCode::OptionError,
                         "job id '" + job->id + "' already active"}));
      return;
    }
  }
  // Bounded admission: a full queue is a typed rejection, never a hang.
  // The queue push and the ack write happen under one hold of the
  // connection's write lock: a worker could otherwise pop the job and have
  // its result frame on the wire before this thread writes the ack.
  bool full = false;
  {
    MutexLock wlock(conn->write_mu);
    std::size_t depth = 0;
    {
      MutexLock lock(queue_mu_);
      if (queue_.size() >= config_.queue_capacity) {
        full = true;
      } else {
        queue_.push_back(job);
        depth = queue_.size();
        queue_cv_.notify_one();
      }
    }
    if (!full) {
      submitted_.fetch_add(1, std::memory_order_relaxed);
      conn->send_locked(ack_frame(job->id, depth));
    }
  }
  if (full) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    finish_job(job);
    conn->send(error_frame(
        job->id, Error{ErrorCode::ResourceError,
                       "job queue full (capacity " +
                           std::to_string(config_.queue_capacity) + ")"}));
  }
}

// --- worker side ------------------------------------------------------------

void Server::worker_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      MutexLock lock(queue_mu_);
      lock.wait(queue_cv_, [&] { return !queue_.empty() || stop_workers_; });
      if (queue_.empty()) return;  // stop requested and nothing left
      job = std::move(queue_.front());
      queue_.pop_front();
      job->started = std::chrono::steady_clock::now();
      running_.push_back(job);
    }
    execute(job);
    {
      MutexLock lock(queue_mu_);
      running_.erase(std::find(running_.begin(), running_.end(), job));
    }
    MutexLock lock(state_mu_);
    state_cv_.notify_all();
  }
}

void Server::execute(const std::shared_ptr<Job>& job) {
  const Request& req = job->request;
  const auto send_cancelled = [&] {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    job->conn->send(cancelled_frame(
        job->id,
        cancel_reason_name(job->reason.load(std::memory_order_relaxed))));
    finish_job(job);
  };
  if (job->cancel.cancelled()) {
    // Cancelled while queued (client cancel or disconnect).
    send_cancelled();
    return;
  }

  // engine_ms covers the whole job: parse or synthesis, the CSSG build and
  // the run.  The worker that set `started` is this thread.
  const auto t0 = job->started;
  Expected<Session> session =
      req.format == Request::CircuitFormat::Benchmark
          ? Session::from_benchmark(req.benchmark, req.style, req.options)
          : Session::from_xnl(job->canonical, req.options);
  if (!session) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    job->conn->send(error_frame(job->id, session.error()));
    finish_job(job);
    return;
  }
  job->circuit_label = session->circuit_name();

  // One run per submit: input|output|both concatenate into one universe so
  // the result payload covers exactly what the request asked for.
  std::vector<Fault> universe;
  if (req.faults == "input" || req.faults == "both")
    universe = session->input_stuck_faults();
  if (req.faults == "output" || req.faults == "both") {
    const auto output = session->output_stuck_faults();
    universe.insert(universe.end(), output.begin(), output.end());
  }

  JobObserver observer(job);
  const Expected<AtpgResult> result = session->run(
      universe, req.progress ? &observer : nullptr, &job->cancel);
  const double engine_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  if (!result) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    job->conn->send(error_frame(job->id, result.error()));
    finish_job(job);
    return;
  }
  if (result->cancelled) {
    // The token fired mid-run (disconnect, explicit cancel, budget, or
    // shutdown racing the pop); the partial result is discarded, never
    // cached.
    send_cancelled();
    return;
  }
  const std::string payload =
      serialize_result(job->circuit_label, req.faults, *result);
  // Only complete, uncancelled results are cacheable: a partial payload
  // replayed to the next client would silently under-report coverage.
  cache_.insert(job->key, payload);
  completed_.fetch_add(1, std::memory_order_relaxed);
  job->conn->send(result_frame(job->id, payload, /*cached=*/false, engine_ms));
  finish_job(job);
}

void Server::finish_job(const std::shared_ptr<Job>& job) {
  MutexLock lock(job->conn->jobs_mu);
  job->conn->active.erase(job->id);
}

// --- stats ------------------------------------------------------------------

ServerStats Server::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  {
    MutexLock lock(queue_mu_);
    s.queue_depth = queue_.size();
    s.running = running_.size();
  }
  s.cache = cache_.stats();
  return s;
}

bool Server::drained() const {
  MutexLock lock(queue_mu_);
  return queue_.empty() && running_.empty();
}

}  // namespace xatpg::serve
