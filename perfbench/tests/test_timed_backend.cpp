// The TimedBackend decorator and the traced configuration must be
// invisible to the engines: on every workload, a pass through the
// decorated backend (and with detail telemetry attached) reproduces the
// undecorated pass's virtual results and report counters bit for bit.
#include <gtest/gtest.h>

#include "workloads.hpp"

namespace grasp::perfbench {
namespace {

class TimedBackendEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(TimedBackendEquivalence, DecoratedRunMatchesUndecorated) {
  SetupTimes times;
  const std::unique_ptr<Workload> w = make_workload(GetParam(), 7, times);
  ASSERT_NE(w, nullptr);
  const Outcome plain = w->run_pass({});
  ASSERT_GT(plain.attempted, 0u);
  EXPECT_EQ(plain.failed, 0u);

  BackendCounters counters;
  Probe decorated;
  decorated.backend = &counters;
  const Outcome timed = w->run_pass(decorated);
  EXPECT_TRUE(timed.same_virtual(plain));
  EXPECT_GT(counters.events, 0u);
  EXPECT_GE(counters.calls, counters.events);
  EXPECT_GT(counters.ns, 0);

  Probe traced = decorated;
  traced.telemetry = true;
  const Outcome with_telemetry = w->run_pass(traced);
  EXPECT_TRUE(with_telemetry.same_virtual(plain));
  EXPECT_GT(with_telemetry.spans, 0.0);
  // The blame partition covers each scenario's window exactly.
  EXPECT_NEAR(with_telemetry.blame.total(), with_telemetry.blame_window_s,
              1e-6 * with_telemetry.blame_window_s);
}

TEST(MakeWorkload, UnknownNameIsRejected) {
  SetupTimes times;
  EXPECT_EQ(make_workload("no_such_workload", 1, times), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TimedBackendEquivalence,
    ::testing::ValuesIn(workload_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace grasp::perfbench
