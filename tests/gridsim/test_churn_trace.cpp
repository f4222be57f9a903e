// Availability-trace loader: FTA-style interval files become explicit
// join/leave/crash timelines, and saving a timeline back out round-trips.
#include "gridsim/churn_trace.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

namespace grasp::gridsim {
namespace {

std::string sample_path() {
  return (std::filesystem::path(__FILE__).parent_path().parent_path() /
          "data" / "fta_sample.trace")
      .string();
}

TEST(ChurnTrace, LoadsSampleIntoExpectedTimeline) {
  const ChurnTimeline t = load_availability_trace(sample_path());

  // Nodes 3 and 5 open their first interval after t=0: initially absent.
  EXPECT_TRUE(t.initially_member(NodeId{0}));
  EXPECT_TRUE(t.initially_member(NodeId{1}));
  EXPECT_TRUE(t.initially_member(NodeId{2}));
  EXPECT_FALSE(t.initially_member(NodeId{3}));
  EXPECT_FALSE(t.initially_member(NodeId{5}));

  EXPECT_EQ(t.count(ChurnEventKind::Crash), 3u);   // 2@90, 2@310, 3@200
  EXPECT_EQ(t.count(ChurnEventKind::Leave), 2u);   // 1@240, 5@410
  EXPECT_EQ(t.count(ChurnEventKind::Join), 2u);    // 3@60, 5@35
  EXPECT_EQ(t.count(ChurnEventKind::Rejoin), 2u);  // 2@150, 3@260

  // Membership queries agree with the intervals.
  EXPECT_TRUE(t.is_member(NodeId{2}, Seconds{50.0}));
  EXPECT_FALSE(t.is_member(NodeId{2}, Seconds{120.0}));
  EXPECT_TRUE(t.is_member(NodeId{2}, Seconds{200.0}));
  EXPECT_FALSE(t.is_member(NodeId{3}, Seconds{30.0}));
  EXPECT_TRUE(t.is_member(NodeId{3}, Seconds{100.0}));
  EXPECT_TRUE(t.is_member(NodeId{3}, Seconds{500.0}));  // reopened, stays up
  EXPECT_TRUE(t.crashed_during(NodeId{2}, Seconds{60.0}, Seconds{100.0}));
  EXPECT_FALSE(t.crashed_during(NodeId{1}, Seconds{0.0}, Seconds{500.0}));
}

TEST(ChurnTrace, SaveLoadRoundTripsEventsAndInitialMembership) {
  const ChurnTimeline original = load_availability_trace(sample_path());
  const std::vector<NodeId> pool = {NodeId{0}, NodeId{1}, NodeId{2},
                                    NodeId{3}, NodeId{4}, NodeId{5}};
  std::stringstream saved;
  save_availability_trace(original, pool, saved);
  const ChurnTimeline reloaded = load_availability_trace(saved);

  ASSERT_EQ(reloaded.events().size(), original.events().size());
  for (std::size_t i = 0; i < original.events().size(); ++i) {
    const ChurnEvent& a = original.events()[i];
    const ChurnEvent& b = reloaded.events()[i];
    EXPECT_DOUBLE_EQ(a.at.value, b.at.value);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.node, b.node);
  }
  for (const NodeId n : pool)
    EXPECT_EQ(original.initially_member(n), reloaded.initially_member(n));
}

TEST(ChurnTrace, SyntheticTimelineSurvivesTheRoundTrip) {
  // The writer also serialises ChurnModel output, so recorded synthetic
  // schedules and real traces share one on-disk format.
  ChurnModel::Params p;
  p.mtbf = 120.0;
  p.horizon = Seconds{400.0};
  p.seed = 11;
  const std::vector<NodeId> pool = {NodeId{0}, NodeId{1}, NodeId{2},
                                    NodeId{3}};
  const ChurnTimeline original = ChurnModel::generate(pool, p);
  std::stringstream saved;
  save_availability_trace(original, pool, saved);
  const ChurnTimeline reloaded = load_availability_trace(saved);
  // Event-for-event equality modulo membership-redundant events the writer
  // collapses (the generator never emits those, so counts must match).
  ASSERT_EQ(reloaded.events().size(), original.events().size());
  for (std::size_t i = 0; i < original.events().size(); ++i) {
    EXPECT_DOUBLE_EQ(reloaded.events()[i].at.value,
                     original.events()[i].at.value);
    EXPECT_EQ(reloaded.events()[i].kind, original.events()[i].kind);
    EXPECT_EQ(reloaded.events()[i].node, original.events()[i].node);
  }
}

TEST(ChurnTrace, RejectsMalformedInput) {
  const auto load = [](const char* text) {
    std::istringstream in(text);
    return load_availability_trace(in);
  };
  EXPECT_THROW(load("0 10\n"), std::runtime_error);          // missing down
  EXPECT_THROW(load("0 10 5 crash\n"), std::runtime_error);  // down < up
  EXPECT_THROW(load("0 0 50 crash\n0 40 90 crash\n"),
               std::runtime_error);  // overlap
  EXPECT_THROW(load("0 0 - crash\n"), std::runtime_error);  // open w/ kind
  EXPECT_THROW(load("0 0 50 vanish\n"), std::runtime_error);  // bad kind
  EXPECT_THROW(load("0 0 -\n0 60 90 crash\n"),
               std::runtime_error);  // interval after an open one
  EXPECT_THROW(load("1 0 nan crash\n"), std::runtime_error);  // NaN down
  EXPECT_THROW(load("1 0 inf crash\n"), std::runtime_error);  // infinite down
  EXPECT_THROW(load("1 0 12abc\n"), std::runtime_error);  // partial number
  EXPECT_THROW(load("1 0 10 crash extra junk\n"),
               std::runtime_error);  // trailing fields
  // The error names the offending line.
  try {
    (void)load("0 0 -\n1 0 nan crash\n");
    ADD_FAILURE() << "NaN down time accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(load("# only comments\n\n"));
}

}  // namespace
}  // namespace grasp::gridsim
