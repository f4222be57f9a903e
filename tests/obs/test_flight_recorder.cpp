// Flight recorder: ring semantics, dump formats, and the GridService
// postmortem path (a planted engine exception must freeze the ring to
// disk without any cooperation from the failing job).
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "svc/grid_service.hpp"
#include "workloads/generators.hpp"

namespace grasp::obs {
namespace {

TEST(FlightRecorder, RingEvictsOldestAndCountsSeen) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i)
    rec.note(static_cast<double>(i), "test", "tick", NodeId{1},
             static_cast<double>(i));
  EXPECT_EQ(rec.seen(), 10u);
  EXPECT_EQ(rec.capacity(), 4u);
  const std::vector<FlightEvent> events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first; the first six were evicted.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_DOUBLE_EQ(events[i].at_s, static_cast<double>(6 + i));
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.seen(), 0u);
}

// A ring with no room would retain nothing; it is a configuration error,
// not a capacity-1 recorder.
TEST(FlightRecorder, ZeroCapacityIsRejected) {
  EXPECT_THROW(FlightRecorder{0}, std::invalid_argument);
  EXPECT_EQ(FlightRecorder{1}.capacity(), 1u);
}

TEST(FlightRecorder, JsonlDumpParsesLineByLine) {
  FlightRecorder rec(8);
  rec.note(1.0, "crash", "worker", NodeId{3}, 2.5, "heartbeat timeout");
  rec.note(2.0, "failover", "promoted", NodeId{4});
  std::ostringstream out;
  rec.dump_jsonl(out);
  std::istringstream in(out.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const auto parsed = parse_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    ASSERT_TRUE(parsed->is_object());
    if (lines == 0) {
      EXPECT_EQ(parsed->find("type")->as_string(), "flight_header");
      EXPECT_DOUBLE_EQ(parsed->find("seen")->as_number(), 2.0);
    }
    ++lines;
  }
  EXPECT_EQ(lines, 3u);  // header + two events
}

TEST(FlightRecorder, ChromeDumpIsOneValidDocument) {
  FlightRecorder rec(8);
  rec.note(0.5, "run", "begin", NodeId{0});
  rec.note(1.5, "crash", "worker", NodeId{2});
  std::ostringstream out;
  rec.dump_chrome(out);
  const auto parsed = parse_json(out.str());
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  for (const JsonValue& e : events->as_array()) {
    EXPECT_EQ(e.find("ph")->as_string(), "i");
    EXPECT_NE(e.find("tid"), nullptr);
  }
}

TEST(FlightRecorder, DumpWithoutPathIsRefused) {
  FlightRecorder rec(4);
  rec.note(0.0, "test", "e");
  EXPECT_FALSE(rec.dump());
  rec.set_dump_path(testing::TempDir() + "flight_explicit");
  EXPECT_TRUE(rec.dump());
  std::remove((testing::TempDir() + "flight_explicit.jsonl").c_str());
  std::remove((testing::TempDir() + "flight_explicit.trace.json").c_str());
}

TEST(FlightRecorder, EngineExceptionDumpsTheRingThroughGridService) {
  const std::string prefix = testing::TempDir() + "flight_postmortem";
  std::remove((prefix + ".jsonl").c_str());
  std::remove((prefix + ".trace.json").c_str());

  Telemetry telemetry;
  FlightRecorder flight(64);
  flight.set_dump_path(prefix);
  telemetry.flight = &flight;

  // Empty pool: the farm engine throws at run start; the service must
  // mark the job Failed and dump the flight ring on its own.
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  svc::GridService::Params params;
  params.telemetry = &telemetry;
  svc::GridService service(backend, grid, {}, params);
  workloads::TaskSetParams tp;
  tp.count = 10;
  const svc::JobHandle handle = service.submit(
      svc::FarmJob{core::make_adaptive_farm_params(),
                   workloads::make_task_set(tp)});
  EXPECT_THROW(service.wait(handle), std::invalid_argument);
  EXPECT_EQ(handle.status(), svc::JobStatus::Failed);

  // The dump exists, parses, and carries the job_failed marker.
  std::ifstream jsonl(prefix + ".jsonl");
  ASSERT_TRUE(jsonl.good());
  std::string line;
  bool saw_failure_marker = false;
  std::size_t lines = 0;
  while (std::getline(jsonl, line)) {
    const auto parsed = parse_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    if (const JsonValue* name = parsed->find("name");
        name != nullptr && name->is_string() &&
        name->as_string() == "job_failed")
      saw_failure_marker = true;
    ++lines;
  }
  EXPECT_GE(lines, 2u);
  EXPECT_TRUE(saw_failure_marker);

  std::ifstream chrome(prefix + ".trace.json");
  ASSERT_TRUE(chrome.good());
  std::stringstream buf;
  buf << chrome.rdbuf();
  EXPECT_TRUE(parse_json(buf.str()).has_value());

  std::remove((prefix + ".jsonl").c_str());
  std::remove((prefix + ".trace.json").c_str());
}

}  // namespace
}  // namespace grasp::obs
