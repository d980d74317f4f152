#include "ops/paned_incremental.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ops/incremental_operator.h"

namespace spear {
namespace {

Tuple T(Timestamp t, double v) { return Tuple(t, {Value(v)}); }
Tuple KT(Timestamp t, const std::string& k, double v) {
  return Tuple(t, {Value(k), Value(v)});
}

TEST(PanedIncrementalTest, RequiresDividingSlide) {
  EXPECT_DEATH(PanedIncrementalOperator(AggregateSpec::Mean(),
                                        WindowSpec::SlidingTime(10, 3),
                                        NumericField(0)),
               "range % ");
}

TEST(PanedIncrementalTest, RejectsHolistic) {
  EXPECT_DEATH(PanedIncrementalOperator(AggregateSpec::Median(),
                                        WindowSpec::SlidingTime(10, 5),
                                        NumericField(0)),
               "IsIncremental");
}

TEST(PanedIncrementalTest, ScalarMeanBasic) {
  PanedIncrementalOperator op(AggregateSpec::Mean(),
                              WindowSpec::SlidingTime(20, 10),
                              NumericField(0));
  op.OnTuple(5, T(5, 2.0));
  op.OnTuple(15, T(15, 4.0));
  auto results = op.OnWatermark(30);
  ASSERT_TRUE(results.ok());
  // Windows [-10,10): {2}, [0,20): {2,4}, [10,30): {4}.
  ASSERT_EQ(results->size(), 3u);
  EXPECT_DOUBLE_EQ((*results)[0].scalar, 2.0);
  EXPECT_DOUBLE_EQ((*results)[1].scalar, 3.0);
  EXPECT_DOUBLE_EQ((*results)[2].scalar, 4.0);
}

TEST(PanedIncrementalTest, PanesEvictedAfterUse) {
  PanedIncrementalOperator op(AggregateSpec::Sum(),
                              WindowSpec::SlidingTime(20, 10),
                              NumericField(0));
  for (int t = 0; t < 100; ++t) op.OnTuple(t, T(t, 1.0));
  EXPECT_EQ(op.active_panes(), 10u);
  (void)op.OnWatermark(100);
  // Only the panes still needed by incomplete windows remain.
  EXPECT_LE(op.active_panes(), 2u);
}

/// Property: pane-merged results must equal the per-window operator's for
/// every mergeable aggregate, scalar and grouped.
struct PanedCase {
  AggregateSpec aggregate;
  bool grouped;

  friend std::ostream& operator<<(std::ostream& os, const PanedCase& c) {
    return os << c.aggregate.ToString()
              << (c.grouped ? "/grouped" : "/scalar");
  }
};

class PanedEquivalence : public ::testing::TestWithParam<PanedCase> {};

TEST_P(PanedEquivalence, MatchesPerWindowIncremental) {
  const PanedCase c = GetParam();
  const WindowSpec window = WindowSpec::SlidingTime(300, 100);
  const KeyExtractor key = c.grouped ? KeyField(0) : KeyExtractor(nullptr);

  PanedIncrementalOperator paned(c.aggregate, window, NumericField(1), key);
  IncrementalOperator per_window(c.aggregate, window, NumericField(1), key);

  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const Timestamp t = static_cast<Timestamp>(rng.NextBounded(3000));
    const Tuple tuple =
        KT(t, std::string("g").append(std::to_string(rng.NextBounded(4))),
           10.0 + rng.NextGaussian());
    // Feed in timestamp-sorted batches would be typical; both operators
    // accept any order ahead of the watermark, so feed as generated.
    paned.OnTuple(t, tuple);
    per_window.OnTuple(t, tuple);
  }
  auto paned_results = paned.OnWatermark(3000);
  auto window_results = per_window.OnWatermark(3000);
  ASSERT_TRUE(paned_results.ok());
  ASSERT_TRUE(window_results.ok());
  ASSERT_EQ(paned_results->size(), window_results->size());
  ASSERT_GT(paned_results->size(), 5u);

  for (std::size_t w = 0; w < paned_results->size(); ++w) {
    const WindowResult& a = (*paned_results)[w];
    const WindowResult& b = (*window_results)[w];
    ASSERT_EQ(a.bounds, b.bounds);
    EXPECT_EQ(a.window_size, b.window_size);
    if (c.grouped) {
      ASSERT_EQ(a.groups.size(), b.groups.size());
      for (std::size_t g = 0; g < a.groups.size(); ++g) {
        EXPECT_EQ(a.groups[g].first, b.groups[g].first);
        EXPECT_NEAR(a.groups[g].second, b.groups[g].second,
                    1e-9 * std::fabs(b.groups[g].second) + 1e-9);
      }
    } else {
      EXPECT_NEAR(a.scalar, b.scalar, 1e-9 * std::fabs(b.scalar) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Aggregates, PanedEquivalence,
    ::testing::Values(PanedCase{AggregateSpec::Count(), false},
                      PanedCase{AggregateSpec::Sum(), false},
                      PanedCase{AggregateSpec::Mean(), false},
                      PanedCase{AggregateSpec::Variance(), false},
                      PanedCase{AggregateSpec::StdDev(), false},
                      PanedCase{AggregateSpec::Min(), false},
                      PanedCase{AggregateSpec::Max(), false},
                      PanedCase{AggregateSpec::Mean(), true},
                      PanedCase{AggregateSpec::Sum(), true},
                      PanedCase{AggregateSpec::Variance(), true}),
    [](const ::testing::TestParamInfo<PanedCase>& info) {
      std::string name = AggregateKindName(info.param.aggregate.kind);
      name += info.param.grouped ? "Grouped" : "Scalar";
      return name;
    });

TEST(PanedIncrementalTest, LateTuplesDropped) {
  PanedIncrementalOperator op(AggregateSpec::Mean(),
                              WindowSpec::SlidingTime(20, 10),
                              NumericField(0));
  op.OnTuple(5, T(5, 1.0));
  (void)op.OnWatermark(30);
  op.OnTuple(7, T(7, 1.0));
  EXPECT_EQ(op.late_tuples(), 1u);
}

}  // namespace
}  // namespace spear
