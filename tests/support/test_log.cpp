// Thread-safety and sink-routing contract of the support-layer logger.
// The suite name matters: CI's TSan job includes `Log` in its filter so
// the concurrent cases below run under the race detector.
#include "support/log.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/export_jsonl.hpp"
#include "obs/json.hpp"
#include "tests/support/alloc_counter.hpp"

namespace grasp {
namespace {

/// Restores the process-global logger state (level + sink) on scope exit,
/// so a failing test cannot leak a dangling sink into later suites.
class LogStateGuard {
 public:
  LogStateGuard() : level_(log_level()) {}
  ~LogStateGuard() {
    set_log_sink(nullptr, nullptr);
    set_log_level(level_);
  }

 private:
  LogLevel level_;
};

struct CapturedLine {
  LogLevel level;
  std::string level_name;
  std::string component;
  std::string message;
};

struct Capture {
  std::mutex mu;
  std::vector<CapturedLine> lines;
};

void capture_sink(void* user, LogLevel level, const char* level_name,
                  const std::string& component, const std::string& message) {
  auto* cap = static_cast<Capture*>(user);
  const std::lock_guard<std::mutex> lock(cap->mu);
  cap->lines.push_back({level, level_name, component, message});
}

TEST(Log, LevelThresholdGatesStatements) {
  LogStateGuard guard;
  Capture cap;
  set_log_level(LogLevel::Off);  // keep stderr quiet for the whole test
  set_log_sink(&capture_sink, &cap);

  GRASP_LOG_DEBUG("farm") << "debug is below the sink floor";
  GRASP_LOG_INFO("farm") << "info " << 1;
  GRASP_LOG_WARN("pool") << "warn " << 2;
  GRASP_LOG_ERROR("pool") << "error " << 3;

  ASSERT_EQ(cap.lines.size(), 3u);
  EXPECT_EQ(cap.lines[0].level, LogLevel::Info);
  EXPECT_EQ(cap.lines[0].component, "farm");
  EXPECT_EQ(cap.lines[0].message, "info 1");
  EXPECT_EQ(cap.lines[1].level, LogLevel::Warn);
  EXPECT_EQ(cap.lines[2].level, LogLevel::Error);
  EXPECT_STREQ(cap.lines[2].level_name.c_str(), "ERROR");
}

TEST(Log, SinkReceivesInfoEvenWhenStderrThresholdIsHigher) {
  LogStateGuard guard;
  Capture cap;
  set_log_level(LogLevel::Off);
  // No sink attached: Info statements are fully disabled.
  GRASP_LOG_INFO("farm") << "dropped";
  set_log_sink(&capture_sink, &cap);
  EXPECT_TRUE(log_sink_attached());
  // Sink attached: the same statement now routes to it despite the
  // stderr threshold.
  GRASP_LOG_INFO("farm") << "captured";
  set_log_sink(nullptr, nullptr);
  EXPECT_FALSE(log_sink_attached());
  GRASP_LOG_INFO("farm") << "dropped again";

  ASSERT_EQ(cap.lines.size(), 1u);
  EXPECT_EQ(cap.lines[0].message, "captured");
}

TEST(Log, ConcurrentLoggingDeliversEveryLineIntact) {
  LogStateGuard guard;
  Capture cap;
  set_log_level(LogLevel::Off);
  set_log_sink(&capture_sink, &cap);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        GRASP_LOG_INFO("worker") << "t" << t << " line " << i << " end";
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(cap.lines.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // Lazily-built messages must arrive whole, never interleaved: each one
  // matches the exact "t<T> line <i> end" shape its thread produced.
  std::vector<int> per_thread(kThreads, 0);
  for (const CapturedLine& line : cap.lines) {
    std::istringstream in(line.message);
    char tch = 0;
    int t = -1, i = -1;
    std::string word, tail;
    in >> word;  // "t<T>"
    ASSERT_GE(word.size(), 2u) << line.message;
    tch = word[0];
    t = std::stoi(word.substr(1));
    in >> word >> i >> tail;
    EXPECT_EQ(tch, 't');
    EXPECT_EQ(word, "line");
    EXPECT_EQ(tail, "end");
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    ++per_thread[static_cast<std::size_t>(t)];
    EXPECT_GE(i, 0);
    EXPECT_LT(i, kPerThread);
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_thread[t], kPerThread);
}

TEST(Log, JsonlSinkEmitsParseableLogLines) {
  LogStateGuard guard;
  set_log_level(LogLevel::Off);
  std::ostringstream out;
  obs::JsonlWriter writer(out);
  obs::attach_log_sink(&writer);
  GRASP_LOG_INFO("farm") << "promoted standby \"n7\"";
  GRASP_LOG_WARN("ledger") << "chunk 12 lost";
  obs::attach_log_sink(nullptr);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    std::string error;
    const auto doc = obs::parse_json(line, &error);
    ASSERT_TRUE(doc.has_value()) << error << " in line: " << line;
    EXPECT_EQ(doc->find("type")->as_string(), "log");
    ASSERT_NE(doc->find("component"), nullptr);
    ASSERT_NE(doc->find("message"), nullptr);
    if (parsed == 0) {
      EXPECT_EQ(doc->find("component")->as_string(), "farm");
      EXPECT_EQ(doc->find("message")->as_string(), "promoted standby \"n7\"");
      // Level names are padded for column alignment on stderr.
      EXPECT_EQ(doc->find("severity")->as_string().substr(0, 4), "INFO");
    }
    ++parsed;
  }
  EXPECT_EQ(parsed, 2u);
}

/// A statement below the threshold with no sink attached allocates
/// nothing: no stream is built and the component is not copied.  The
/// component is longer than any small-string buffer, so a copy into a
/// std::string would have to allocate.
TEST(Log, FilteredStatementMakesNoHeapAllocation) {
  LogStateGuard guard;
  set_log_level(LogLevel::Warn);
  test::start_counting_allocations();
  GRASP_LOG_INFO("a-component-name-past-the-sso-buffer")
      << "filtered " << 42 << ' ' << 1.5 << std::string_view(" out");
  EXPECT_EQ(test::stop_counting_allocations(), 0u);
}

}  // namespace
}  // namespace grasp
