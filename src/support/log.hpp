// Leveled logging with a process-global threshold.
//
// The skeletons log adaptation decisions (recalibrations, node swaps, stage
// remaps) at Info; the simulator logs event-level detail at Debug.  Tests
// and benches run at Warn by default to keep output clean.
#pragma once

#include <optional>
#include <sstream>
#include <string>

namespace grasp {

enum class LogLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Process-global log threshold.  Atomic: safe to read from worker threads
/// and to change mid-run (new statements pick up the new level).
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Optional structured sink: receives every line at Info or above —
/// regardless of the stderr threshold — so an attached JSONL exporter
/// captures adaptation decisions even when stderr stays quiet at Warn.
/// Plain function pointer + user cookie keeps the support layer free of
/// std::function; obs::attach_log_sink wraps this for the JSONL writer.
/// One sink at a time; pass (nullptr, nullptr) to detach.  The sink is
/// invoked under the sink mutex and must be thread-safe itself only if it
/// shares state outside the callback.
using LogSinkFn = void (*)(void* user, LogLevel level, const char* level_name,
                           const std::string& component,
                           const std::string& message);
void set_log_sink(LogSinkFn sink, void* user);
/// True when a sink is attached (fast atomic check for LogStatement).
[[nodiscard]] bool log_sink_attached();

/// Emit one line if `level` passes the stderr threshold or the sink wants
/// it.  The stderr write is a single pre-formatted string under one mutex,
/// so concurrent workers never interleave fragments of a line.
void log_line(LogLevel level, const std::string& component,
              const std::string& message);

namespace detail {
/// Builds the message lazily: a filtered statement builds no stream and
/// copies nothing, so it allocates nothing; the stream body only runs when
/// enabled.  `component` must outlive the statement (a literal does).
class LogStatement {
 public:
  LogStatement(LogLevel level, const char* component)
      : level_(level), component_(component) {
    if (level >= log_level() ||
        (level >= LogLevel::Info && log_sink_attached()))
      stream_.emplace();
  }
  LogStatement(const LogStatement&) = delete;
  LogStatement& operator=(const LogStatement&) = delete;
  ~LogStatement() {
    if (stream_) log_line(level_, component_, stream_->str());
  }
  template <typename T>
  LogStatement& operator<<(const T& value) {
    if (stream_) *stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* component_;
  std::optional<std::ostringstream> stream_;
};
}  // namespace detail

}  // namespace grasp

#define GRASP_LOG_DEBUG(component) \
  ::grasp::detail::LogStatement(::grasp::LogLevel::Debug, component)
#define GRASP_LOG_INFO(component) \
  ::grasp::detail::LogStatement(::grasp::LogLevel::Info, component)
#define GRASP_LOG_WARN(component) \
  ::grasp::detail::LogStatement(::grasp::LogLevel::Warn, component)
#define GRASP_LOG_ERROR(component) \
  ::grasp::detail::LogStatement(::grasp::LogLevel::Error, component)
