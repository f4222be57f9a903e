// Forwarding core::Backend decorator that measures the substrate layer
// (gridsim event queue + SimBackend tables) from outside.
//
// Every call is forwarded unchanged to the wrapped backend — including
// submit_batch, so a backend's bulk insert path stays the one that runs —
// and timed with steady_clock.  wait_next results are counted as events.
// The engines cannot tell the decorator from the backend it wraps, so a
// decorated run yields the same virtual results and reports as an
// undecorated one (perfbench/tests pins that on all three workloads).
//
// Calls may come from several threads (GridService engine threads reach
// the backend through their JobBackend proxies), but the service's turn
// handoff serialises them under its mutex, so plain counters suffice.
#pragma once

#include <chrono>
#include <cstdint>

#include "core/backend.hpp"

namespace grasp::perfbench {

struct BackendCounters {
  std::uint64_t calls = 0;   ///< every forwarded Backend call
  std::uint64_t events = 0;  ///< completions returned by wait_next
  std::int64_t ns = 0;       ///< host time spent inside the wrapped backend
};

class TimedBackend final : public core::Backend {
 public:
  explicit TimedBackend(core::Backend& inner) : inner_(inner) {}

  [[nodiscard]] const BackendCounters& counters() const { return counters_; }

  [[nodiscard]] Seconds now() const override {
    const Timer t(counters_);
    return inner_.now();
  }
  void submit_compute(core::OpToken token, NodeId node, Mops work,
                      std::function<void()> body = {}) override {
    const Timer t(counters_);
    inner_.submit_compute(token, node, work, std::move(body));
  }
  void submit_transfer(core::OpToken token, NodeId from, NodeId to,
                       Bytes payload) override {
    const Timer t(counters_);
    inner_.submit_transfer(token, from, to, payload);
  }
  void submit_timer(core::OpToken token, Seconds delay) override {
    const Timer t(counters_);
    inner_.submit_timer(token, delay);
  }
  bool cancel_timer(core::OpToken token) override {
    const Timer t(counters_);
    return inner_.cancel_timer(token);
  }
  void submit_batch(std::vector<core::OpRequest> requests) override {
    const Timer t(counters_);
    inner_.submit_batch(std::move(requests));
  }
  [[nodiscard]] double compute_progress(core::OpToken token) const override {
    const Timer t(counters_);
    return inner_.compute_progress(token);
  }
  [[nodiscard]] std::optional<core::Completion> wait_next() override {
    const Timer t(counters_);
    std::optional<core::Completion> c = inner_.wait_next();
    if (c) ++counters_.events;
    return c;
  }
  [[nodiscard]] std::size_t in_flight() const override {
    const Timer t(counters_);
    return inner_.in_flight();
  }

 private:
  /// Charges the enclosing call's host time to the counters on scope exit.
  class Timer {
   public:
    explicit Timer(BackendCounters& c)
        : c_(c), start_(std::chrono::steady_clock::now()) {}
    ~Timer() {
      ++c_.calls;
      c_.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    BackendCounters& c_;
    std::chrono::steady_clock::time_point start_;
  };

  core::Backend& inner_;
  // Mutable: const Backend queries (now, in_flight, compute_progress) are
  // timed too.
  mutable BackendCounters counters_;
};

}  // namespace grasp::perfbench
