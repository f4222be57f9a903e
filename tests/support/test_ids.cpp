#include "support/ids.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <unordered_set>

namespace grasp {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.is_valid());
  EXPECT_EQ(id, NodeId::invalid());
}

TEST(StrongId, ConstructedIsValidAndOrdered) {
  NodeId a{1}, b{2};
  EXPECT_TRUE(a.is_valid());
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_EQ(NodeId{1}, a);
}

TEST(StrongId, DistinctTagTypesAreDistinctTypes) {
  static_assert(!std::is_same_v<NodeId, TaskId>);
  static_assert(!std::is_same_v<SiteId, StageId>);
}

TEST(StrongId, Hashable) {
  std::unordered_set<NodeId> set;
  set.insert(NodeId{1});
  set.insert(NodeId{2});
  set.insert(NodeId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Seconds, Arithmetic) {
  const Seconds a{2.0}, b{0.5};
  EXPECT_DOUBLE_EQ((a + b).value, 2.5);
  EXPECT_DOUBLE_EQ((a - b).value, 1.5);
  EXPECT_DOUBLE_EQ((a * 3.0).value, 6.0);
  EXPECT_DOUBLE_EQ((3.0 * a).value, 6.0);
  EXPECT_DOUBLE_EQ((a / 4.0).value, 0.5);
  Seconds c{1.0};
  c += b;
  EXPECT_DOUBLE_EQ(c.value, 1.5);
  c -= b;
  EXPECT_DOUBLE_EQ(c.value, 1.0);
}

TEST(Seconds, InfinityAndZero) {
  EXPECT_TRUE(std::isinf(Seconds::infinity().value));
  EXPECT_DOUBLE_EQ(Seconds::zero().value, 0.0);
  EXPECT_LT(Seconds{1e300}, Seconds::infinity());
}

TEST(Units, MopsAndBytesAccumulate) {
  Mops w{10.0};
  w += Mops{5.0};
  EXPECT_DOUBLE_EQ(w.value, 15.0);
  Bytes b{100.0};
  b += Bytes{28.0};
  EXPECT_DOUBLE_EQ(b.value, 128.0);
}

TEST(Units, TransferTime) {
  EXPECT_DOUBLE_EQ(transfer_time(Bytes{1e6}, BytesPerSecond{1e6}).value, 1.0);
  EXPECT_DOUBLE_EQ(transfer_time(Bytes{5e5}, BytesPerSecond{1e6}).value, 0.5);
  EXPECT_TRUE(std::isinf(
      transfer_time(Bytes{1.0}, BytesPerSecond{0.0}).value));
}

TEST(Units, StreamOutput) {
  std::ostringstream os;
  os << NodeId{7} << ' ' << TaskId{3} << ' ' << Seconds{1.5} << ' '
     << Bytes{8.0} << ' ' << Mops{2.0};
  EXPECT_EQ(os.str(), "node(7) task(3) 1.5s 8B 2Mops");
}

TEST(Units, InvalidIdStreamOutput) {
  std::ostringstream os;
  os << NodeId::invalid();
  EXPECT_EQ(os.str(), "node(<invalid>)");
}

}  // namespace
}  // namespace grasp
