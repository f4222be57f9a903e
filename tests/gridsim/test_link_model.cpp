#include "gridsim/link_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

namespace grasp::gridsim {
namespace {

LinkModel make_link(double latency, double bandwidth,
                    std::unique_ptr<LoadModel> contention = nullptr) {
  LinkModel::Params p;
  p.id = LinkId{0};
  p.latency = Seconds{latency};
  p.bandwidth = BytesPerSecond{bandwidth};
  p.contention = std::move(contention);
  return LinkModel(std::move(p));
}

TEST(LinkModel, UncontendedTransferIsLatencyPlusBytesOverBandwidth) {
  const LinkModel link = make_link(0.01, 1e6);
  EXPECT_NEAR(link.transfer_duration(Bytes{2e6}, Seconds{0.0}).value,
              0.01 + 2.0, 1e-9);
}

TEST(LinkModel, EmptyPayloadCostsLatencyOnly) {
  const LinkModel link = make_link(0.05, 1e6);
  EXPECT_DOUBLE_EQ(link.transfer_duration(Bytes{0.0}, Seconds{3.0}).value,
                   0.05);
}

TEST(LinkModel, ContentionHalvesEffectiveBandwidth) {
  const LinkModel link =
      make_link(0.0, 1e6, std::make_unique<ConstantLoad>(1.0));
  EXPECT_DOUBLE_EQ(link.effective_bandwidth(Seconds{0.0}).value, 5e5);
  EXPECT_NEAR(link.transfer_duration(Bytes{1e6}, Seconds{0.0}).value, 2.0,
              1e-9);
}

TEST(LinkModel, SteppedContentionIntegrates) {
  // 1 MB/s; dedicated until t=1, then one competitor (0.5 MB/s).
  auto contention = std::make_unique<StepLoad>(
      std::vector<StepLoad::Segment>{{Seconds{1.0}, 1.0}}, 0.0);
  const LinkModel link = make_link(0.0, 1e6, std::move(contention));
  // 1.5 MB: 1 MB in first second, 0.5 MB at 0.5 MB/s -> 2 s total.
  EXPECT_NEAR(link.transfer_duration(Bytes{1.5e6}, Seconds{0.0}).value, 2.0,
              1e-6);
}

TEST(LinkModel, ContentionStepTakesEffectAtItsTime) {
  // The competitor arrives at t = 1.1, inside a 0.25 s grid cell: 1.1 MB
  // by then, the other 0.4 MB at 0.5 MB/s.
  auto contention = std::make_unique<StepLoad>(
      std::vector<StepLoad::Segment>{{Seconds{1.1}, 1.0}}, 0.0);
  const LinkModel link = make_link(0.0, 1e6, std::move(contention));
  EXPECT_NEAR(link.transfer_duration(Bytes{1.5e6}, Seconds{0.0}).value, 1.9,
              1e-12);
}

TEST(LinkModel, RejectsBadParams) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(make_link(-0.1, 1e6), std::invalid_argument);
  EXPECT_THROW(make_link(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(make_link(kNaN, 1e6), std::invalid_argument);
  EXPECT_THROW(make_link(kInf, 1e6), std::invalid_argument);
  EXPECT_THROW(make_link(0.0, kNaN), std::invalid_argument);
  EXPECT_THROW(make_link(0.0, kInf), std::invalid_argument);
}

TEST(LinkModel, CopyIsDeep) {
  RandomWalkLoad::Params p;
  LinkModel a = make_link(0.0, 1e6, std::make_unique<RandomWalkLoad>(p, 9));
  const LinkModel b = a;
  for (int k = 0; k < 20; ++k) {
    const Seconds t{static_cast<double>(k)};
    EXPECT_DOUBLE_EQ(a.contention_at(t), b.contention_at(t));
  }
}

TEST(LinkModel, TransferConservedAcrossSplit) {
  RandomWalkLoad::Params p;
  p.step_stddev = 0.4;
  const LinkModel link =
      make_link(0.0, 2e6, std::make_unique<RandomWalkLoad>(p, 77));
  const double whole = link.transfer_duration(Bytes{8e6}, Seconds{0.0}).value;
  const double first = link.transfer_duration(Bytes{3e6}, Seconds{0.0}).value;
  const double second =
      link.transfer_duration(Bytes{5e6}, Seconds{first}).value;
  EXPECT_NEAR(whole, first + second, 1e-6);
}

}  // namespace
}  // namespace grasp::gridsim
