// Strong identifier and unit types used across the GRASP libraries.
//
// Raw integers and doubles are easy to transpose (node index vs. task index,
// seconds vs. megabytes).  Every externally visible quantity therefore gets a
// distinct, zero-overhead wrapper type.  The wrappers are aggregates with a
// single `value` member: cheap to copy, trivially hashable, and ordered so
// they can key maps and sort results.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>

namespace grasp {

/// CRTP base for strongly typed integral identifiers.
///
/// Provides ordering, equality and an `invalid()` sentinel.  Derived types
/// add nothing; they exist purely so `NodeId` and `TaskId` cannot be mixed.
template <typename Tag, typename Rep = std::uint64_t>
struct StrongId {
  using rep_type = Rep;

  Rep value{std::numeric_limits<Rep>::max()};

  constexpr StrongId() = default;
  constexpr explicit StrongId(Rep v) : value(v) {}

  /// Sentinel meaning "no such entity".
  [[nodiscard]] static constexpr StrongId invalid() { return StrongId{}; }
  [[nodiscard]] constexpr bool is_valid() const {
    return value != std::numeric_limits<Rep>::max();
  }

  friend constexpr auto operator<=>(StrongId, StrongId) = default;
};

struct NodeTag {};
struct TaskTag {};
struct LinkTag {};
struct SiteTag {};
struct StageTag {};
struct ItemTag {};

/// Identifies one processing element (a "node") in the grid.
using NodeId = StrongId<NodeTag>;
/// Identifies one unit of farm work.
using TaskId = StrongId<TaskTag>;
/// Identifies one network link in the topology.
using LinkId = StrongId<LinkTag>;
/// Identifies one administrative site (cluster) of the grid.
using SiteId = StrongId<SiteTag>;
/// Identifies one pipeline stage.
using StageId = StrongId<StageTag>;
/// Identifies one item flowing through a pipeline.
using ItemId = StrongId<ItemTag>;

// ---------------------------------------------------------------------------
// Units.  All times are double seconds of *whichever clock drives the run*
// (virtual in simulation, steady_clock in the threaded backend).  Work is
// measured in abstract mega-operations so node speed (Mops/s) divides it.
// ---------------------------------------------------------------------------

/// A duration or instant in seconds.  Arithmetic is deliberately permissive
/// (instant vs. duration distinction is not worth the friction here), but the
/// type keeps seconds from mixing with bytes or Mops.
struct Seconds {
  double value{0.0};
  constexpr Seconds() = default;
  constexpr explicit Seconds(double v) : value(v) {}
  friend constexpr auto operator<=>(Seconds, Seconds) = default;
  friend constexpr Seconds operator+(Seconds a, Seconds b) {
    return Seconds{a.value + b.value};
  }
  friend constexpr Seconds operator-(Seconds a, Seconds b) {
    return Seconds{a.value - b.value};
  }
  friend constexpr Seconds operator*(Seconds a, double k) {
    return Seconds{a.value * k};
  }
  friend constexpr Seconds operator*(double k, Seconds a) {
    return Seconds{a.value * k};
  }
  friend constexpr Seconds operator/(Seconds a, double k) {
    return Seconds{a.value / k};
  }
  constexpr Seconds& operator+=(Seconds o) {
    value += o.value;
    return *this;
  }
  constexpr Seconds& operator-=(Seconds o) {
    value -= o.value;
    return *this;
  }
  [[nodiscard]] static constexpr Seconds zero() { return Seconds{0.0}; }
  [[nodiscard]] static constexpr Seconds infinity() {
    return Seconds{std::numeric_limits<double>::infinity()};
  }
};

/// Message or payload size in bytes.
struct Bytes {
  double value{0.0};
  constexpr Bytes() = default;
  constexpr explicit Bytes(double v) : value(v) {}
  friend constexpr auto operator<=>(Bytes, Bytes) = default;
  friend constexpr Bytes operator+(Bytes a, Bytes b) {
    return Bytes{a.value + b.value};
  }
  friend constexpr Bytes operator*(Bytes a, double k) {
    return Bytes{a.value * k};
  }
  constexpr Bytes& operator+=(Bytes o) {
    value += o.value;
    return *this;
  }
  [[nodiscard]] static constexpr Bytes zero() { return Bytes{0.0}; }
};

/// Abstract computational work: mega-operations.  A node of speed s Mops/s
/// completes `Mops{w}` in `w / s` seconds at zero background load.
struct Mops {
  double value{0.0};
  constexpr Mops() = default;
  constexpr explicit Mops(double v) : value(v) {}
  friend constexpr auto operator<=>(Mops, Mops) = default;
  friend constexpr Mops operator+(Mops a, Mops b) {
    return Mops{a.value + b.value};
  }
  friend constexpr Mops operator*(Mops a, double k) {
    return Mops{a.value * k};
  }
  constexpr Mops& operator+=(Mops o) {
    value += o.value;
    return *this;
  }
  [[nodiscard]] static constexpr Mops zero() { return Mops{0.0}; }
};

/// Bandwidth in bytes per second.
struct BytesPerSecond {
  double value{0.0};
  constexpr BytesPerSecond() = default;
  constexpr explicit BytesPerSecond(double v) : value(v) {}
  friend constexpr auto operator<=>(BytesPerSecond, BytesPerSecond) = default;
};

/// Time to push `b` bytes through bandwidth `bw` (latency excluded).
[[nodiscard]] constexpr Seconds transfer_time(Bytes b, BytesPerSecond bw) {
  if (bw.value <= 0.0) return Seconds::infinity();
  return Seconds{b.value / bw.value};
}

std::ostream& operator<<(std::ostream& os, NodeId id);
std::ostream& operator<<(std::ostream& os, TaskId id);
std::ostream& operator<<(std::ostream& os, Seconds s);
std::ostream& operator<<(std::ostream& os, Bytes b);
std::ostream& operator<<(std::ostream& os, Mops m);

}  // namespace grasp

template <typename Tag, typename Rep>
struct std::hash<grasp::StrongId<Tag, Rep>> {
  std::size_t operator()(grasp::StrongId<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value);
  }
};
