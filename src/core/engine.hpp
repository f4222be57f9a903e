// Event-driven engine interface, in the shape of FastFlow's
// one-call-per-item svc().  start(now) issues a run's first operations,
// on(c) consumes one completion (or timer firing) of the engine's own ops,
// on_idle() reports that none is left in flight or pending (wait_next
// returned nullopt), and finished() ends the run.  Each call runs until the
// engine needs its next completion, so an engine never blocks.  `drive` is
// the standalone loop; the GridService steps many engines from one loop
// instead.
#pragma once

#include "core/backend.hpp"

namespace grasp::core {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  virtual ~Engine() = default;
  virtual void start(Seconds now) = 0;
  virtual void on(const Completion& completion) = 0;
  virtual void on_idle() = 0;
  [[nodiscard]] virtual bool finished() const = 0;
};

/// Step `engine` over `backend`'s completion stream until it finishes.
/// Whatever the engine throws propagates to the caller.
inline void drive(Backend& backend, Engine& engine) {
  engine.start(backend.now());
  while (!engine.finished()) {
    if (const auto completion = backend.wait_next())
      engine.on(*completion);
    else
      engine.on_idle();
  }
}

}  // namespace grasp::core
