// Implementation of the xatpg::Session facade (xatpg/session.hpp).
//
// This file is the typed-error boundary of the library: every internal
// failure mode (CheckError from the parser/synthesizer/engine, unknown
// benchmark names, degenerate options, invalid fault specs) is translated
// into an xatpg::Error here, so nothing below ever aborts a consumer's
// process.
#include "xatpg/session.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "atpg/engine.hpp"
#include "atpg/fault.hpp"
#include "benchmarks/benchmarks.hpp"
#include "netlist/netlist.hpp"
#include "sim/ternary.hpp"
#include "synth/synth.hpp"
#include "util/check.hpp"

namespace xatpg {

struct Session::Impl {
  Netlist netlist;
  std::vector<bool> reset;
  AtpgOptions options;
  std::unique_ptr<AtpgEngine> engine;
  /// Reentrancy sentinel for the one-run-at-a-time contract (session.hpp).
  std::atomic<bool> running{false};

  /// Shared tail of every factory: build the engine (CSSG + explicit graph)
  /// for the loaded circuit, translating internal failures into typed
  /// errors.
  static Expected<Session> finish(std::unique_ptr<Impl> impl);
  /// Shared body of the text factories: parse with `parse` (which throws
  /// CheckError on malformed input) and settle the all-false reset state.
  static Expected<Session> from_text(Netlist (*parse)(const std::string&),
                                     const std::string& text,
                                     const AtpgOptions& options);
  /// Shared body of the file factories: read `path` and hand its text to
  /// the matching text factory.
  static Expected<Session> from_file(
      Expected<Session> (*from_text)(const std::string&, const AtpgOptions&),
      const std::string& path, const AtpgOptions& options);
};

namespace {

/// Enforces the one-run-at-a-time contract: entering run() while another
/// run is active on the same Session (from another server worker, or
/// reentrantly from an observer callback) is a consumer programming
/// error, so it throws CheckError — deliberately constructed
/// BEFORE the typed-error try block so the violation stays loud instead of
/// being translated into a ResourceError the caller might retry.
class RunGuard {
 public:
  explicit RunGuard(std::atomic<bool>& running) : running_(running) {
    XATPG_CHECK_MSG(
        !running_.exchange(true, std::memory_order_acq_rel),
        "Session::run entered while another run is active on the same "
        "Session — a Session supports one run at a time (use one Session "
        "per job; see xatpg/session.hpp)");
  }
  ~RunGuard() { running_.store(false, std::memory_order_release); }
  RunGuard(const RunGuard&) = delete;
  RunGuard& operator=(const RunGuard&) = delete;

 private:
  std::atomic<bool>& running_;
};

Error invalid_fault_error(const Netlist& netlist, const Fault& fault,
                          std::size_t index) {
  std::ostringstream os;
  os << "fault #" << index << " is invalid for circuit '" << netlist.name()
     << "': ";
  if (fault.gate >= netlist.num_signals()) {
    os << "gate id " << fault.gate << " out of range (" << netlist.num_signals()
       << " signals)";
  } else {
    os << "pin " << fault.pin << " out of range for gate '"
       << netlist.signal_name(fault.gate) << "' ("
       << netlist.gate(fault.gate).fanins.size() << " fanins)";
  }
  return Error{ErrorCode::OptionError, os.str()};
}

/// nullopt when every fault names a real site.
std::optional<Error> validate_faults(const Netlist& netlist,
                                     const std::vector<Fault>& faults) {
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = faults[i];
    if (f.gate >= netlist.num_signals())
      return invalid_fault_error(netlist, f, i);
    if (f.site == Fault::Site::GatePin &&
        f.pin >= netlist.gate(f.gate).fanins.size())
      return invalid_fault_error(netlist, f, i);
  }
  return std::nullopt;
}

}  // namespace

Session::Session(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

Expected<Session> Session::Impl::finish(std::unique_ptr<Impl> impl) {
  const Expected<void> valid = impl->options.validate();
  if (!valid) return valid.error();
  try {
    impl->engine =
        std::make_unique<AtpgEngine>(impl->netlist, impl->reset, impl->options);
  } catch (const CheckError& e) {
    return Error{ErrorCode::ResourceError,
                 std::string("building the CSSG abstraction failed: ") +
                     e.what()};
  } catch (const std::bad_alloc&) {
    return Error{ErrorCode::ResourceError,
                 "out of memory building the CSSG abstraction"};
  }
  return Session(std::move(impl));
}

Expected<Session> Session::Impl::from_text(
    Netlist (*parse)(const std::string&), const std::string& text,
    const AtpgOptions& options) {
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  try {
    impl->netlist = parse(text);
  } catch (const CheckError& e) {
    return Error{ErrorCode::ParseError, e.what()};
  } catch (const std::bad_alloc&) {
    return Error{ErrorCode::ResourceError, "out of memory parsing the circuit"};
  }
  impl->reset.assign(impl->netlist.num_signals(), false);
  if (!settle_to_stable(impl->netlist, impl->reset))
    return Error{ErrorCode::ResourceError,
                 "circuit '" + impl->netlist.name() +
                     "' does not settle to a stable state from the all-false "
                     "assignment; no test-mode reset state exists"};
  return finish(std::move(impl));
}

Expected<Session> Session::Impl::from_file(
    Expected<Session> (*from_text)(const std::string&, const AtpgOptions&),
    const std::string& path, const AtpgOptions& options) {
  std::ifstream in(path);
  if (!in)
    return Error{ErrorCode::ResourceError,
                 "cannot open '" + path + "' for reading"};
  std::ostringstream text;
  text << in.rdbuf();
  return from_text(text.str(), options);
}

Expected<Session> Session::from_xnl(const std::string& text,
                                    const AtpgOptions& options) {
  return Impl::from_text(&parse_xnl_string, text, options);
}

Expected<Session> Session::from_xnl_file(const std::string& path,
                                         const AtpgOptions& options) {
  return Impl::from_file(&from_xnl, path, options);
}

Expected<Session> Session::from_bench(const std::string& text,
                                      const AtpgOptions& options) {
  return Impl::from_text(&parse_bench_string, text, options);
}

Expected<Session> Session::from_bench_file(const std::string& path,
                                           const AtpgOptions& options) {
  return Impl::from_file(&from_bench, path, options);
}

Expected<Session> Session::from_benchmark(const std::string& name,
                                          SynthStyle style,
                                          const AtpgOptions& options) {
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  if (name == "fig1a" || name == "fig1b") {
    impl->netlist = name == "fig1a" ? fig1a_circuit(&impl->reset)
                                    : fig1b_circuit(&impl->reset);
  } else {
    // Distinguish "no such benchmark" (an option error: the caller named
    // something that does not exist) from "the specification does not
    // synthesize" (a synthesis error).
    try {
      benchmark_stg(name);
    } catch (const CheckError& e) {
      return Error{ErrorCode::OptionError, e.what()};
    }
    try {
      SynthResult synth = benchmark_circuit(name, style);
      impl->netlist = std::move(synth.netlist);
      impl->reset = std::move(synth.reset_state);
    } catch (const CheckError& e) {
      return Error{ErrorCode::SynthError, e.what()};
    }
  }
  return Impl::finish(std::move(impl));
}

const std::string& Session::circuit_name() const {
  return impl_->netlist.name();
}
std::size_t Session::num_inputs() const {
  return impl_->netlist.inputs().size();
}
std::size_t Session::num_outputs() const {
  return impl_->netlist.outputs().size();
}
std::size_t Session::num_signals() const { return impl_->netlist.num_signals(); }
std::size_t Session::num_pins() const { return impl_->netlist.num_pins(); }
std::string Session::circuit_xnl() const {
  return write_xnl_string(impl_->netlist);
}
const std::vector<bool>& Session::reset_state() const { return impl_->reset; }
const AtpgOptions& Session::options() const { return impl_->options; }

const CssgStats& Session::cssg_stats() const {
  return impl_->engine->cssg().stats();
}
std::string Session::cssg_dot() const { return impl_->engine->cssg().to_dot(); }

std::vector<Fault> Session::input_stuck_faults() const {
  return xatpg::input_stuck_faults(impl_->netlist);
}
std::vector<Fault> Session::output_stuck_faults() const {
  return xatpg::output_stuck_faults(impl_->netlist);
}
std::string Session::describe(const Fault& fault) const {
  if (validate_faults(impl_->netlist, {fault}).has_value())
    return "<invalid fault>";
  return fault.describe(impl_->netlist);
}

Expected<AtpgResult> Session::run(const std::vector<Fault>& faults,
                                  RunObserver* observer,
                                  const CancelToken* cancel) {
  RunGuard guard(impl_->running);
  if (const auto invalid = validate_faults(impl_->netlist, faults))
    return *invalid;
  try {
    return impl_->engine->run(faults, observer, cancel);
  } catch (const CheckError& e) {
    return Error{ErrorCode::ResourceError, e.what()};
  } catch (const std::bad_alloc&) {
    return Error{ErrorCode::ResourceError, "out of memory during the run"};
  }
}

Expected<std::string> Session::test_program(const AtpgResult& result) const {
  std::ostringstream out;
  try {
    write_test_program(out, impl_->netlist, *impl_->engine, result.sequences);
  } catch (const CheckError& e) {
    return Error{ErrorCode::OptionError,
                 std::string("cannot export test program: ") + e.what()};
  } catch (const std::bad_alloc&) {
    return Error{ErrorCode::ResourceError,
                 "out of memory exporting the test program"};
  }
  return out.str();
}

ShardBddStats Session::bdd_stats() const {
  // The engine's context is a delta view over the frozen shared base: its
  // own counters cover the private delta arena only, so the engine-context
  // stats compose the base in.  The base is immutable after the engine
  // constructor (its counters stopped moving at freeze), so reading it here
  // — main thread, between runs — is race-free.
  BddManager& mgr = impl_->engine->cssg().encoding().mgr();
  const BddManager& base = impl_->engine->base_cssg().encoding().mgr();
  ShardBddStats stats;
  stats.shard = 0;
  stats.base_nodes = base.allocated_nodes();
  stats.delta_peak = mgr.peak_nodes();
  stats.peak_nodes = stats.base_nodes + stats.delta_peak;
  mgr.collect_garbage();
  stats.live_nodes = stats.base_nodes + mgr.allocated_nodes();
  stats.reorders = base.reorder_count() + mgr.reorder_count();
  stats.cache_lookups = base.cache_lookups() + mgr.cache_lookups();
  stats.cache_hits = base.cache_hits() + mgr.cache_hits();
  stats.unique_load = std::max(base.unique_load(), mgr.unique_load());
  return stats;
}

std::vector<ShardBddStats> Session::shard_bdd_stats() const {
  return impl_->engine->shard_bdd_stats();
}

std::size_t Session::sift_now() {
  return impl_->engine->cssg().encoding().sift_now().size_after;
}

}  // namespace xatpg
