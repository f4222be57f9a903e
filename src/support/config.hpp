// Key=value run configuration.
//
// Examples and bench binaries take small configuration files (or inline
// overrides such as "nodes=32 tasks=4000") describing grid shape and
// workload parameters, so experiment variants need no recompilation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace grasp {

/// Flat string map with typed accessors.  Syntax: one `key = value` per
/// line, `#` starts a comment, blank lines ignored.  Later keys override
/// earlier ones.
class Config {
 public:
  Config() = default;

  /// Parse from file contents / a file on disk.  Throws std::runtime_error
  /// on malformed lines (missing '=') or unreadable files.
  static Config parse(const std::string& text);
  static Config load(const std::string& path);

  /// Apply `key=value` tokens (e.g. from argv) on top of current values.
  void override_with(const std::vector<std::string>& assignments);

  void set(const std::string& key, const std::string& value);
  [[nodiscard]] bool contains(const std::string& key) const;

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// Throws std::runtime_error when the value does not parse.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  /// A non-negative integer (a node, task or item count).  Throws
  /// std::runtime_error when the value does not parse or is negative, so a
  /// "-1" never wraps to a huge unsigned count.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Trim ASCII whitespace from both ends (exposed for tests).
[[nodiscard]] std::string trim(const std::string& s);

}  // namespace grasp
