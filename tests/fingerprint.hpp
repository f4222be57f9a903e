// Digests for fingerprint tests: a run reduced to a hash of what it
// produced, so a test can pin a whole trace or report against the value
// recorded at an earlier commit.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "gridsim/trace.hpp"

namespace grasp::test {

/// FNV-1a over the fields' bytes; doubles go in as raw bits so the digest
/// sees every ulp.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  Digest& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  Digest& add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The trace sequence: (at, kind, node, task, value, note) per record.
inline std::string trace_digest(const gridsim::TraceRecorder& trace) {
  Digest d;
  for (const auto& e : trace.events())
    d.add(e.at.value)
        .add(static_cast<std::uint64_t>(e.kind))
        .add(e.node.value)
        .add(e.task.value)
        .add(e.value)
        .add(e.note);
  return d.hex();
}

}  // namespace grasp::test
