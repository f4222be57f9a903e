#include "support/config.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace grasp {

std::string trim(const std::string& s) {
  auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  auto begin = std::find_if_not(s.begin(), s.end(), is_space);
  auto end = std::find_if_not(s.rbegin(), s.rend(), is_space).base();
  if (begin >= end) return {};
  return std::string(begin, end);
}

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("Config: missing '=' on line " +
                               std::to_string(line_no));
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty())
      throw std::runtime_error("Config: empty key on line " +
                               std::to_string(line_no));
    cfg.values_[key] = value;
  }
  return cfg;
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Config: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

void Config::override_with(const std::vector<std::string>& assignments) {
  for (const auto& token : assignments) {
    const auto eq = token.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("Config: override '" + token +
                               "' is not key=value");
    set(trim(token.substr(0, eq)), trim(token.substr(eq + 1)));
  }
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const std::int64_t parsed = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: key '" + key + "' value '" + *v +
                             "' is not an integer");
  }
}

std::size_t Config::get_count(const std::string& key,
                              std::size_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  const std::int64_t parsed = get_int(key, 0);
  if (parsed < 0)
    throw std::runtime_error("Config: key '" + key + "' value '" + *v +
                             "' is not a count (negative)");
  return static_cast<std::size_t>(parsed);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return parsed;
  } catch (const std::exception&) {
    throw std::runtime_error("Config: key '" + key + "' value '" + *v +
                             "' is not a number");
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::string lowered = *v;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lowered == "true" || lowered == "1" || lowered == "yes" || lowered == "on")
    return true;
  if (lowered == "false" || lowered == "0" || lowered == "no" || lowered == "off")
    return false;
  throw std::runtime_error("Config: key '" + key + "' value '" + *v +
                           "' is not a boolean");
}

}  // namespace grasp
