// Execution backend abstraction.
//
// The skeleton engines (farm, pipeline), calibration and the execution
// monitor are written once against this interface.  A backend supplies two
// asynchronous primitives — compute on a node, transfer between nodes — and
// a completion stream.  `SimBackend` resolves them in virtual time from the
// gridsim models (deterministic, fast: all experiments run here);
// `ThreadBackend` resolves them on real threads in wall-clock time
// (correctness demos, real payload execution).  Engines drive per-task state
// machines off the completion stream, so skeleton logic is identical on
// both.
//
// The interface comes in two halves.  `OpPort` is what an event-driven
// engine (core/engine.hpp) holds: submit operations, read the clock, count
// what is in flight.  `Backend` adds the completion stream, `wait_next`,
// which only the loop that steps the engines calls.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "obs/span.hpp"
#include "support/ids.hpp"

namespace grasp::core {

/// Token identifying one asynchronous operation; engines allocate them.  A
/// token names at most one undelivered operation at a time, and an engine
/// may reuse it for a new operation once the previous one has been
/// delivered: the farms submit a chunk's input transfer, compute and
/// output transfer one after another under the chunk's single key.
using OpToken = std::uint64_t;

/// One finished asynchronous operation (or a fired timer).
struct Completion {
  OpToken token = 0;
  NodeId node;        ///< computing node, or destination of a transfer
  Seconds started;    ///< when the operation was submitted
  Seconds finished;   ///< when it completed (backend clock)
  bool is_timer = false;  ///< a submit_timer firing, not a compute/transfer

  [[nodiscard]] Seconds duration() const { return finished - started; }
};

/// One element of a batch submission (see Backend::submit_batch).  A tagged
/// record rather than three overloads so a dispatch wave can mix computes,
/// transfers and timers while preserving their relative order.
struct OpRequest {
  enum class Kind { Compute, Transfer, Timer };

  Kind kind = Kind::Transfer;
  OpToken token = 0;
  NodeId node;                 ///< compute node
  NodeId from, to;             ///< transfer endpoints
  Mops work;                   ///< compute cost
  Bytes payload;               ///< transfer size
  Seconds delay;               ///< timer delay
  std::function<void()> body;  ///< compute body (threaded backend only)

  [[nodiscard]] static OpRequest compute(OpToken token, NodeId node, Mops work,
                                         std::function<void()> body = {}) {
    OpRequest r;
    r.kind = Kind::Compute;
    r.token = token;
    r.node = node;
    r.work = work;
    r.body = std::move(body);
    return r;
  }
  [[nodiscard]] static OpRequest transfer(OpToken token, NodeId from,
                                          NodeId to, Bytes payload) {
    OpRequest r;
    r.kind = Kind::Transfer;
    r.token = token;
    r.from = from;
    r.to = to;
    r.payload = payload;
    return r;
  }
  [[nodiscard]] static OpRequest timer(OpToken token, Seconds delay) {
    OpRequest r;
    r.kind = Kind::Timer;
    r.token = token;
    r.delay = delay;
    return r;
  }
};

class OpPort {
 public:
  virtual ~OpPort() = default;

  /// Current time on the backend's clock.  Virtual seconds for the
  /// simulator, wall-clock seconds since construction for threads.
  [[nodiscard]] virtual Seconds now() const = 0;

  /// Begin `work` Mops of compute on `node`.  Never blocks.  `body`, if
  /// non-null, is real user work executed by the threaded backend (the
  /// simulator ignores it: cost comes from the models).
  virtual void submit_compute(OpToken token, NodeId node, Mops work,
                              std::function<void()> body = {}) = 0;

  /// Begin moving `payload` from `from` to `to`.  Never blocks.
  virtual void submit_transfer(OpToken token, NodeId from, NodeId to,
                               Bytes payload) = 0;

  /// Arm a one-shot timer that fires `delay` (>= 0) after now().  The firing
  /// is delivered as a Completion with `is_timer` set and an invalid node.
  /// Timers are ordered: of two pending timers the earlier deadline is
  /// delivered first (ties by submission order), and a timer never fires
  /// before an operation whose completion time precedes its deadline.
  /// Pending timers keep wait_next alive but are *not* counted by
  /// in_flight(), so engine drain invariants see real work only.
  virtual void submit_timer(OpToken token, Seconds delay) = 0;

  /// Cancel a timer.  Afterwards its completion is never delivered, whether
  /// it had already fired or not.  Returns true when the timer was still
  /// pending (or fired but undelivered); false when it was unknown or
  /// already delivered.
  virtual bool cancel_timer(OpToken token) = 0;

  /// Submit a wave of operations in one call.  Semantically identical to
  /// invoking the per-kind submit methods element-by-element in order —
  /// completion ordering, timer FIFO ties and failure behaviour are all
  /// preserved — but lets a backend resolve the whole wave with one bulk
  /// insert into its scheduling structure.  The engines route their dispatch
  /// rounds through this entry point; single operations (a tick re-arm, a
  /// phase transition) keep the direct per-kind calls.
  virtual void submit_batch(std::vector<OpRequest> requests) {
    for (OpRequest& r : requests) {
      switch (r.kind) {
        case OpRequest::Kind::Compute:
          submit_compute(r.token, r.node, r.work, std::move(r.body));
          break;
        case OpRequest::Kind::Transfer:
          submit_transfer(r.token, r.from, r.to, r.payload);
          break;
        case OpRequest::Kind::Timer:
          submit_timer(r.token, r.delay);
          break;
      }
    }
  }

  /// Fraction of an undelivered compute operation's modelled duration that
  /// has elapsed by now(), in [0, 1].  This is the progress signal a
  /// worker's periodic checkpoint message carries: the farmer samples it on
  /// the checkpoint tick to learn how far into a chunk a node is.  Unknown
  /// tokens — transfers, timers, never-submitted or already-delivered ops —
  /// report 0; an op that has not started running yet (queued behind
  /// another on the threaded backend) also reports 0.
  [[nodiscard]] virtual double compute_progress(OpToken token) const = 0;

  /// Number of operations submitted but not yet delivered as completions.
  /// Pending timers are excluded.
  [[nodiscard]] virtual std::size_t in_flight() const = 0;
};

class Backend : public OpPort {
 public:
  /// Block (or advance virtual time) until the next operation completes or
  /// timer fires.  Returns nullopt when nothing is in flight and no timer
  /// is pending.
  [[nodiscard]] virtual std::optional<Completion> wait_next() = 0;
};

/// The engines' obs::Clock: spans and emitted events are stamped from the
/// backend's clock (virtual seconds on the simulator, wall seconds on the
/// threaded backend).
class BackendClock final : public obs::Clock {
 public:
  explicit BackendClock(const OpPort& backend) : backend_(backend) {}
  [[nodiscard]] double now_s() const override { return backend_.now().value; }

 private:
  const OpPort& backend_;
};

}  // namespace grasp::core
