// Minimal out-of-tree consumer: runs the quickstart flow against the
// *installed* xatpg package, using only <xatpg/...> public headers.  Any
// include of a src/ internal header here is a bug.  Exits non-zero if the
// flow misbehaves, so CI can use it as a smoke test.
#include <iostream>

#include <xatpg/xatpg.hpp>

int main() {
  using namespace xatpg;

  // Typed errors work.
  const Expected<Session> missing = Session::from_benchmark("no-such-circuit");
  if (missing.has_value() ||
      missing.error().code != ErrorCode::OptionError) {
    std::cerr << "expected OptionError for unknown benchmark\n";
    return 1;
  }
  AtpgOptions bad;
  bad.k = 0;
  if (bad.validate().has_value()) {
    std::cerr << "expected validate() to reject k = 0\n";
    return 1;
  }

  // The quickstart flow works.
  AtpgOptions options;
  options.random_budget = 32;
  options.threads = 2;
  Expected<Session> session =
      Session::from_benchmark("chu150", SynthStyle::SpeedIndependent, options);
  if (!session) {
    std::cerr << "session failed: " << session.error().to_string() << "\n";
    return 1;
  }
  const Expected<AtpgResult> result =
      session->run(session->input_stuck_faults());
  if (!result) {
    std::cerr << "run failed: " << result.error().to_string() << "\n";
    return 1;
  }
  if (result->stats.covered != result->stats.total_faults) {
    std::cerr << "chu150 input stuck-at coverage regressed: "
              << result->stats.covered << "/" << result->stats.total_faults
              << "\n";
    return 1;
  }
  const Expected<std::string> program = session->test_program(*result);
  if (!program || program->find(".end") == std::string::npos) {
    std::cerr << "test-program export failed\n";
    return 1;
  }

  // A second run on the same (moved-to) Session, on the output universe:
  // what the production callers do.
  Session moved = std::move(*session);
  const Expected<AtpgResult> output = moved.run(moved.output_stuck_faults());
  if (!output || output->stats.total_faults != 2 * moved.num_signals()) {
    std::cerr << "second run on the output universe failed\n";
    return 1;
  }

  std::cout << "consumer ok: " << moved.circuit_name() << " input "
            << result->stats.covered << "/" << result->stats.total_faults
            << ", output " << output->stats.covered << "/"
            << output->stats.total_faults << " covered via find_package(xatpg)\n";
  return 0;
}
