#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

namespace grasp::obs {

namespace {

/// Bucket index for value `v` under `spec`; bucket_count means overflow.
std::size_t bucket_index(const HistogramSpec& spec, double v) {
  if (!(v > spec.first_bound)) return 0;  // also catches NaN and <= 0
  const double steps =
      std::log(v / spec.first_bound) / std::log(spec.growth);
  const double idx = std::ceil(steps);
  if (idx >= static_cast<double>(spec.bucket_count))
    return spec.bucket_count;  // overflow
  return static_cast<std::size_t>(std::max(idx, 1.0));
}

}  // namespace

double HistogramSnapshot::lower_bound(std::size_t i) const {
  if (i == 0) return 0.0;
  return spec.first_bound * std::pow(spec.growth, static_cast<double>(i - 1));
}

double HistogramSnapshot::upper_bound(std::size_t i) const {
  if (i >= spec.bucket_count)
    return std::numeric_limits<double>::infinity();
  return spec.first_bound * std::pow(spec.growth, static_cast<double>(i));
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Target rank in [1, count]; walk the cumulative counts to the bucket
  // holding it, then interpolate linearly inside that bucket.
  const double rank = std::max(1.0, p * static_cast<double>(count));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= rank) {
      const double lo = std::max(lower_bound(i), min);
      const double hi = std::min(
          i >= spec.bucket_count ? max : upper_bound(i), max);
      const double within =
          (rank - static_cast<double>(cum)) / static_cast<double>(in_bucket);
      const double v = lo + within * (hi - lo);
      return std::clamp(v, min, max);
    }
    cum += in_bucket;
  }
  return max;  // unreachable when bucket totals match `count`
}

std::pair<std::uint32_t, bool> MetricsRegistry::slot_of(
    NameIndex& index, std::string_view name, std::size_t next) {
  if (const auto it = index.find(name); it != index.end())
    return {it->second, false};
  const auto slot = static_cast<std::uint32_t>(next);
  index.emplace(std::string(name), slot);
  return {slot, true};
}

CounterHandle MetricsRegistry::counter(std::string_view name) {
  const auto [slot, added] = slot_of(counter_slots_, name, counters_.size());
  if (added) counters_.emplace_back(std::string(name), 0);
  return CounterHandle{slot};
}

GaugeHandle MetricsRegistry::gauge(std::string_view name) {
  const auto [slot, added] = slot_of(gauge_slots_, name, gauges_.size());
  if (added) gauges_.emplace_back(std::string(name), 0.0);
  return GaugeHandle{slot};
}

HistogramHandle MetricsRegistry::histogram(std::string_view name,
                                           HistogramSpec spec) {
  const auto [slot, added] =
      slot_of(histogram_slots_, name, histograms_.size());
  if (added)
    histograms_.push_back({.name = std::string(name),
                           .spec = spec,
                           .min = std::numeric_limits<double>::infinity(),
                           .max = -std::numeric_limits<double>::infinity(),
                           .buckets = std::vector<std::uint64_t>(
                               spec.bucket_count + 1)});
  return HistogramHandle{slot};
}

void MetricsRegistry::observe_always(HistogramHandle h, double v) {
  HistogramSnapshot& slot = histograms_[h.slot];
  ++slot.buckets[bucket_index(slot.spec, v)];
  ++slot.count;
  slot.sum += v;
  slot.min = std::min(slot.min, v);  // a NaN sample moves neither extreme
  slot.max = std::max(slot.max, v);
}

HistogramSnapshot MetricsRegistry::histogram_snapshot(
    HistogramHandle h) const {
  HistogramSnapshot snap = histograms_[h.slot];
  if (snap.count == 0) snap.min = snap.max = 0.0;
  return snap;
}

void MetricsRegistry::import_scoped(std::string_view prefix,
                                    const MetricsSnapshot& snap) {
  std::string name;
  for (const auto& [n, v] : snap.counters) {
    name.assign(prefix);
    name += n;
    set_counter(counter(name), v);
  }
  for (const auto& [n, v] : snap.gauges) {
    name.assign(prefix);
    name += n;
    set(gauge(name), v);
  }
  for (const auto& h : snap.histograms) {
    name.assign(prefix);
    name += h.name;
    const HistogramHandle slot = histogram(name, h.spec);
    merge_into(histograms_[slot.slot], h);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap{counters_, gauges_, histograms_};
  for (HistogramSnapshot& h : snap.histograms)
    if (h.count == 0) h.min = h.max = 0.0;
  return snap;
}

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& base) const {
  std::map<std::string_view, std::uint64_t> base_counters;
  for (const auto& [n, v] : base.counters) base_counters.emplace(n, v);
  std::map<std::string_view, double> base_gauges;
  for (const auto& [n, v] : base.gauges) base_gauges.emplace(n, v);
  std::map<std::string_view, const HistogramSnapshot*> base_hists;
  for (const auto& h : base.histograms) base_hists.emplace(h.name, &h);

  MetricsSnapshot out;
  out.counters.reserve(counters.size());
  for (const auto& [n, v] : counters) {
    const auto it = base_counters.find(n);
    const std::uint64_t b = it == base_counters.end() ? 0 : it->second;
    out.counters.emplace_back(n, v >= b ? v - b : 0);
  }
  out.gauges.reserve(gauges.size());
  for (const auto& [n, v] : gauges) {
    const auto it = base_gauges.find(n);
    out.gauges.emplace_back(n, it == base_gauges.end() ? v : v - it->second);
  }
  out.histograms.reserve(histograms.size());
  for (const auto& h : histograms) {
    HistogramSnapshot d = h;
    const auto it = base_hists.find(h.name);
    if (it != base_hists.end()) {
      const HistogramSnapshot& b = *it->second;
      d.count = h.count >= b.count ? h.count - b.count : 0;
      d.sum = h.sum - b.sum;
      const std::size_t shared = std::min(d.buckets.size(),
                                          b.buckets.size());
      for (std::size_t i = 0; i < shared; ++i)
        d.buckets[i] =
            h.buckets[i] >= b.buckets[i] ? h.buckets[i] - b.buckets[i] : 0;
      if (d.count == 0) {
        d.sum = 0.0;
        d.min = d.max = 0.0;
      }
    }
    out.histograms.push_back(std::move(d));
  }
  return out;
}

void merge_into(HistogramSnapshot& dst, const HistogramSnapshot& src) {
  if (src.count == 0) return;
  if (dst.buckets.empty()) {
    const std::string name = dst.name;  // keep the destination's identity
    dst = src;
    if (!name.empty()) dst.name = name;
    return;
  }
  const std::size_t shared = std::min(dst.buckets.size(), src.buckets.size());
  for (std::size_t i = 0; i < shared; ++i) dst.buckets[i] += src.buckets[i];
  std::uint64_t excess = 0;
  for (std::size_t i = shared; i < src.buckets.size(); ++i)
    excess += src.buckets[i];
  dst.buckets.back() += excess;
  const bool was_empty = dst.count == 0;
  dst.count += src.count;
  dst.sum += src.sum;
  dst.min = was_empty ? src.min : std::min(dst.min, src.min);
  dst.max = was_empty ? src.max : std::max(dst.max, src.max);
}

std::vector<HistogramSnapshot> rollup_histograms(const MetricsSnapshot& snap,
                                                 std::string_view scope) {
  // Scoped names look like "<scope>.<k>.<rest>" with <k> all digits.
  const auto scoped_rest =
      [&](const std::string& name) -> std::optional<std::string> {
    if (name.size() <= scope.size() + 2 ||
        name.compare(0, scope.size(), scope) != 0 ||
        name[scope.size()] != '.')
      return std::nullopt;
    std::size_t i = scope.size() + 1;
    const std::size_t digits_start = i;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
    if (i == digits_start || i >= name.size() || name[i] != '.' ||
        i + 1 >= name.size())
      return std::nullopt;
    return name.substr(i + 1);
  };
  std::vector<HistogramSnapshot> rollups;
  std::map<std::string, std::size_t> index;
  for (const HistogramSnapshot& h : snap.histograms) {
    const auto rest = scoped_rest(h.name);
    if (!rest.has_value()) continue;
    const auto [it, inserted] = index.emplace(*rest, rollups.size());
    if (inserted) {
      HistogramSnapshot fresh;
      fresh.name = *rest;
      fresh.spec = h.spec;
      rollups.push_back(std::move(fresh));
    }
    merge_into(rollups[it->second], h);
  }
  return rollups;
}

MetricsSnapshot filter_snapshot(const MetricsSnapshot& snap,
                                std::string_view prefix, bool strip) {
  const auto matches = [&](const std::string& name) {
    return name.size() >= prefix.size() &&
           name.compare(0, prefix.size(), prefix) == 0;
  };
  const auto view_name = [&](const std::string& name) {
    return strip ? name.substr(prefix.size()) : name;
  };
  MetricsSnapshot out;
  for (const auto& [n, v] : snap.counters)
    if (matches(n)) out.counters.emplace_back(view_name(n), v);
  for (const auto& [n, v] : snap.gauges)
    if (matches(n)) out.gauges.emplace_back(view_name(n), v);
  for (const auto& h : snap.histograms) {
    if (!matches(h.name)) continue;
    HistogramSnapshot copy = h;
    copy.name = view_name(h.name);
    out.histograms.push_back(std::move(copy));
  }
  return out;
}

}  // namespace grasp::obs
