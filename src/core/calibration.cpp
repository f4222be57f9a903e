#include "core/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "support/log.hpp"
#include "support/regression.hpp"
#include "support/stats.hpp"

namespace grasp::core {

const char* to_string(RankingStrategy s) {
  switch (s) {
    case RankingStrategy::TimeOnly: return "time_only";
    case RankingStrategy::Univariate: return "univariate";
    case RankingStrategy::Multivariate: return "multivariate";
  }
  return "unknown";
}

RankingStrategy ranking_strategy_from_string(const std::string& name) {
  if (name == "time_only") return RankingStrategy::TimeOnly;
  if (name == "univariate") return RankingStrategy::Univariate;
  if (name == "multivariate") return RankingStrategy::Multivariate;
  throw std::invalid_argument("unknown ranking strategy: " + name);
}

bool CalibrationResult::contains(NodeId node) const {
  return std::find(chosen.begin(), chosen.end(), node) != chosen.end();
}

Calibrator::Calibrator(SkeletonTraits traits, CalibrationParams params)
    : traits_(std::move(traits)), params_(params) {
  // Written to fail on NaN: it compares false both ways, so a plain range
  // test would let it through.
  if (params_.select_count == 0 &&
      !(params_.select_fraction > 0.0 && params_.select_fraction <= 1.0))
    throw std::invalid_argument("Calibrator: select_fraction out of (0,1]");
  if (!(std::isfinite(params_.exclusion_ratio) &&
        params_.exclusion_ratio >= 0.0))
    throw std::invalid_argument(
        "Calibrator: exclusion_ratio must be finite and non-negative");
}

CalibrationResult Calibrator::run(Backend& backend,
                                  const std::vector<NodeId>& pool,
                                  TaskSource& tasks,
                                  perfmon::MonitorDaemon* monitor,
                                  obs::Emitter* emit,
                                  TokenAllocator& tokens) const {
  if (backend.in_flight() != 0)
    throw std::logic_error("Calibrator: backend has foreign ops in flight");
  CalibrationPass pass(*this, backend, pool, tasks, monitor, emit, tokens);
  while (!pass.done()) {
    const auto completion = backend.wait_next();
    if (!completion)
      throw std::logic_error("Calibrator: backend drained unexpectedly");
    if (monitor) monitor->advance_to(backend.now());
    pass.on(*completion);
  }
  return pass.finish();
}

CalibrationPass::CalibrationPass(const Calibrator& calibrator,
                                 OpPort& backend,
                                 const std::vector<NodeId>& pool,
                                 TaskSource& tasks,
                                 perfmon::MonitorDaemon* monitor,
                                 obs::Emitter* emit, TokenAllocator& tokens)
    : params_(calibrator.params()),
      backend_(backend),
      pool_(pool),
      tasks_(tasks),
      monitor_(monitor),
      emit_(emit),
      tokens_(tokens) {
  if (pool_.empty()) throw std::invalid_argument("Calibrator: empty pool");
  root_ = params_.root.is_valid() ? params_.root : pool_.front();
  const std::size_t samples =
      params_.samples_per_node > 0
          ? params_.samples_per_node
          : std::max<std::size_t>(1, calibrator.traits().calibration_samples);

  result_.started = backend_.now();
  if (emit_)
    emit_->emit(gridsim::TraceEventKind::CalibrationStarted, root_,
                TaskId::invalid(), static_cast<double>(pool_.size()), "pool");
  probe_shape_.work = Mops{1.0};
  probe_shape_.input = Bytes{1e3};
  probe_shape_.output = Bytes{1e3};

  // Warm starts: nodes the shared cache already has a fresh estimate for
  // enter the ranking with that value and skip their probe chain.  Their
  // sample window degenerates to [started, now], so the statistical
  // adjustment correlates them with the load they face right now.
  if (params_.spm_cache != nullptr && params_.warm_start) {
    for (const NodeId node : pool_) {
      const auto cached = params_.spm_cache->lookup(node, backend_.now());
      if (!cached) continue;
      spm_stats_[node].add(*cached);
      warm_nodes_.insert(node);
    }
  }
  result_.nodes_warm_started = warm_nodes_.size();

  // Dispatch one sample to every node concurrently (Algorithm 1 line 1).
  for (const NodeId node : pool_)
    if (warm_nodes_.count(node) == 0) launch_sample(node, samples - 1);
}

void CalibrationPass::launch_sample(NodeId node, std::size_t samples_left) {
  SampleOp op;
  op.node = node;
  op.phase = Phase::Input;
  op.samples_left = samples_left;
  if (!tasks_.empty()) {
    op.task = tasks_.pop();
    op.is_probe = false;
    probe_shape_ = op.task;
  } else {
    op.task = probe_shape_;
    op.task.id = TaskId::invalid();
    op.is_probe = true;
  }
  op.sample_start = backend_.now();
  if (!window_begin_.count(node)) window_begin_[node] = op.sample_start;
  const OpToken token = tokens_.alloc();
  backend_.submit_transfer(token, root_, node, op.task.input);
  if (emit_ && !op.is_probe)
    emit_->emit(gridsim::TraceEventKind::TaskDispatched, node, op.task.id,
                op.task.work.value, "calibration");
  in_flight_.emplace(token, std::move(op));
}

std::vector<CalibrationPass::Abandoned> CalibrationPass::abandon(
    NodeId node) {
  std::vector<Abandoned> dropped;
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    if (it->second.node == node) {
      dropped.push_back({it->first, it->second.task, it->second.is_probe});
      it = in_flight_.erase(it);
    } else {
      ++it;
    }
  }
  abandoned_.insert(node);
  return dropped;
}

void CalibrationPass::on(const Completion& completion) {
  // Drive the transfer->compute->transfer chain per node.
  const auto it = in_flight_.find(completion.token);
  if (it == in_flight_.end())
    throw std::logic_error("Calibrator: unknown completion token");
  SampleOp op = std::move(it->second);
  in_flight_.erase(it);

  switch (op.phase) {
    case Phase::Input: {
      op.phase = Phase::Compute;
      const OpToken token = tokens_.alloc();
      std::function<void()> body;
      if (params_.task_body && !op.is_probe)
        body = [fn = params_.task_body, task = op.task] { fn(task); };
      backend_.submit_compute(token, op.node, op.task.work, std::move(body));
      in_flight_.emplace(token, std::move(op));
      break;
    }
    case Phase::Compute: {
      op.phase = Phase::Output;
      const OpToken token = tokens_.alloc();
      backend_.submit_transfer(token, op.node, root_, op.task.output);
      in_flight_.emplace(token, std::move(op));
      break;
    }
    case Phase::Output: {
      const Seconds elapsed = backend_.now() - op.sample_start;
      const double spm = elapsed.value / std::max(1e-9, op.task.work.value);
      spm_stats_[op.node].add(spm);
      window_end_[op.node] = backend_.now();
      // First completion wins, same as the execution phase: a sample task
      // may have been finished elsewhere meanwhile (a straggler twin, or
      // checkpoint recovery of a lost chunk that also carried it).
      if (!op.is_probe && tasks_.mark_completed(op.task.id)) {
        ++result_.tasks_consumed;
        if (emit_)
          emit_->emit(gridsim::TraceEventKind::TaskCompleted, op.node,
                      op.task.id, elapsed.value, "calibration");
      }
      if (op.samples_left > 0) launch_sample(op.node, op.samples_left - 1);
      break;
    }
  }
}

CalibrationResult CalibrationPass::finish() {
  CalibrationResult result = std::move(result_);

  // Build per-node scores with monitor context.  Nodes that died mid-
  // calibration (or never produced a sample) are not rankable.
  std::vector<NodeScore> scores;
  scores.reserve(pool_.size());
  for (const NodeId node : pool_) {
    if (abandoned_.count(node) != 0 || spm_stats_.count(node) == 0) continue;
    NodeScore s;
    s.node = node;
    s.observed_spm = spm_stats_.at(node).mean();
    s.adjusted_spm = s.observed_spm;
    if (monitor_) {
      // The load that matters is the one the node faced *while running its
      // sample*; a reading taken after the sample can miss a transient.
      const Seconds from = window_begin_.count(node) ? window_begin_.at(node)
                                                    : result.started;
      const Seconds to =
          window_end_.count(node) ? window_end_.at(node) : backend_.now();
      s.observed_load = monitor_->mean_load_between(node, from, to);
      s.observed_bandwidth = monitor_->mean_bandwidth_between(node, from, to);
    }
    scores.push_back(s);
  }

  // Feed freshly measured nodes back into the shared cache (warm entries
  // would only re-store their own value, so they are skipped).
  if (params_.spm_cache != nullptr) {
    for (const auto& s : scores)
      if (warm_nodes_.count(s.node) == 0)
        params_.spm_cache->store(s.node, s.observed_spm, backend_.now());
  }

  // "Adjust T statistically" (Algorithm 1, statistical calibration branch).
  const bool statistical = params_.strategy != RankingStrategy::TimeOnly &&
                           monitor_ != nullptr && scores.size() >= 4;
  if (statistical) {
    std::vector<double> times;
    times.reserve(scores.size());
    for (const auto& s : scores) times.push_back(s.observed_spm);

    if (params_.strategy == RankingStrategy::Univariate) {
      std::vector<double> loads;
      loads.reserve(scores.size());
      for (const auto& s : scores) loads.push_back(s.observed_load);
      const UnivariateFit fit = fit_univariate(loads, times);
      for (auto& s : scores) {
        const double forecast = monitor_->forecast_load(s.node);
        // Extrapolate the observation to the load we expect to face.
        s.adjusted_spm = std::max(
            0.0, s.observed_spm + fit.slope * (forecast - s.observed_load));
      }
      GRASP_LOG_INFO("calibration")
          << "univariate fit: slope=" << fit.slope << " r2=" << fit.r_squared;
    } else {  // Multivariate: predictors (load, 1/bandwidth)
      std::vector<std::vector<double>> rows;
      rows.reserve(scores.size());
      for (const auto& s : scores)
        rows.push_back({s.observed_load,
                        1.0 / std::max(1.0, s.observed_bandwidth)});
      const MultivariateFit fit = fit_multivariate(rows, times);
      if (fit.ok) {
        for (auto& s : scores) {
          const double load_fc = monitor_->forecast_load(s.node);
          const double bw_fc =
              1.0 / std::max(1.0, monitor_->forecast_bandwidth(s.node));
          const double bw_obs =
              1.0 / std::max(1.0, s.observed_bandwidth);
          s.adjusted_spm = std::max(
              0.0, s.observed_spm +
                       fit.coefficients[1] * (load_fc - s.observed_load) +
                       fit.coefficients[2] * (bw_fc - bw_obs));
        }
        GRASP_LOG_INFO("calibration")
            << "multivariate fit r2=" << fit.r_squared;
      } else {
        // Uniform bandwidth makes the 1/bw column collinear with the
        // intercept; drop it and regress on load alone rather than
        // abandoning the statistical adjustment entirely.
        std::vector<double> loads;
        loads.reserve(scores.size());
        for (const auto& s : scores) loads.push_back(s.observed_load);
        const UnivariateFit uni = fit_univariate(loads, times);
        for (auto& s : scores) {
          const double forecast = monitor_->forecast_load(s.node);
          s.adjusted_spm = std::max(
              0.0, s.observed_spm + uni.slope * (forecast - s.observed_load));
        }
        GRASP_LOG_INFO("calibration")
            << "multivariate fit singular; fell back to load-only "
               "regression (slope=" << uni.slope << ")";
      }
    }
  }

  // Rank (fittest = smallest adjusted seconds-per-Mop) and select.
  std::sort(scores.begin(), scores.end(),
            [](const NodeScore& a, const NodeScore& b) {
              if (a.adjusted_spm != b.adjusted_spm)
                return a.adjusted_spm < b.adjusted_spm;
              return a.node < b.node;
            });
  std::size_t k = params_.select_count > 0
                      ? std::min(params_.select_count, scores.size())
                      : static_cast<std::size_t>(std::ceil(
                            params_.select_fraction *
                            static_cast<double>(scores.size())));
  k = std::min(std::max<std::size_t>(1, k), scores.size());

  if (params_.exclusion_ratio > 0.0 && !scores.empty()) {
    std::vector<double> all_spm;
    all_spm.reserve(scores.size());
    for (const auto& s : scores) all_spm.push_back(s.adjusted_spm);
    const double cutoff = params_.exclusion_ratio * median(all_spm);
    const std::size_t floor_keep = std::min<std::size_t>(scores.size(), 2);
    while (k > floor_keep && scores[k - 1].adjusted_spm > cutoff) --k;
  }

  result.ranking = scores;
  OnlineStats baseline;
  for (std::size_t i = 0; i < k; ++i) {
    result.chosen.push_back(scores[i].node);
    baseline.add(scores[i].adjusted_spm);
  }
  result.baseline_spm = baseline.mean();
  result.finished = backend_.now();
  if (emit_)
    emit_->emit(gridsim::TraceEventKind::CalibrationFinished, root_,
               TaskId::invalid(), static_cast<double>(result.chosen.size()),
               "chosen");
  GRASP_LOG_INFO("calibration")
      << "selected " << result.chosen.size() << "/" << pool_.size()
      << " nodes, baseline " << result.baseline_spm << " s/Mop";
  return result;
}

}  // namespace grasp::core
