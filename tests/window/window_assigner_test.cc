#include "window/window_assigner.h"

#include <gtest/gtest.h>

#include <vector>

namespace spear {
namespace {

TEST(WindowAssignerTest, TumblingAssignsExactlyOne) {
  const WindowSpec spec = WindowSpec::TumblingTime(10);
  const auto windows = AssignWindows(spec, 25);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], (WindowBounds{20, 30}));
}

TEST(WindowAssignerTest, TumblingBoundary) {
  const WindowSpec spec = WindowSpec::TumblingTime(10);
  EXPECT_EQ(AssignWindows(spec, 20)[0], (WindowBounds{20, 30}));
  EXPECT_EQ(AssignWindows(spec, 19)[0], (WindowBounds{10, 20}));
}

TEST(WindowAssignerTest, SlidingAssignsAllOverlapping) {
  // Paper's Fig. 3 example: range 15, slide 5; ts=61 participates in
  // (50,65), (55,70), (60,75).
  const WindowSpec spec = WindowSpec::SlidingTime(15, 5);
  const auto windows = AssignWindows(spec, 61);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0], (WindowBounds{50, 65}));
  EXPECT_EQ(windows[1], (WindowBounds{55, 70}));
  EXPECT_EQ(windows[2], (WindowBounds{60, 75}));
}

TEST(WindowAssignerTest, SlidingAtSlideBoundary) {
  const WindowSpec spec = WindowSpec::SlidingTime(15, 5);
  const auto windows = AssignWindows(spec, 60);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0], (WindowBounds{50, 65}));
  EXPECT_EQ(windows[2], (WindowBounds{60, 75}));
}

TEST(WindowAssignerTest, NegativeCoordinates) {
  const WindowSpec spec = WindowSpec::TumblingTime(10);
  const auto windows = AssignWindows(spec, -3);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0], (WindowBounds{-10, 0}));
  EXPECT_TRUE(windows[0].Contains(-3));
}

TEST(WindowAssignerTest, ZeroCoordinate) {
  const WindowSpec spec = WindowSpec::SlidingTime(10, 5);
  const auto windows = AssignWindows(spec, 0);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0], (WindowBounds{-5, 5}));
  EXPECT_EQ(windows[1], (WindowBounds{0, 10}));
}

TEST(WindowAssignerTest, EveryAssignedWindowContainsCoord) {
  const WindowSpec spec = WindowSpec::SlidingTime(100, 33);
  for (std::int64_t coord : {-250L, -1L, 0L, 7L, 99L, 100L, 12345L}) {
    const auto windows = AssignWindows(spec, coord);
    EXPECT_FALSE(windows.empty());
    for (const auto& w : windows) {
      EXPECT_TRUE(w.Contains(coord))
          << w.ToString() << " should contain " << coord;
      EXPECT_EQ(w.start % spec.slide, 0);
    }
  }
}

TEST(WindowAssignerTest, FirstAndLastStartHelpers) {
  const WindowSpec spec = WindowSpec::SlidingTime(15, 5);
  EXPECT_EQ(LastWindowStartFor(spec, 61), 60);
  EXPECT_EQ(FirstWindowStartFor(spec, 61), 50);
  EXPECT_EQ(LastWindowStartFor(spec, -1), -5);
  EXPECT_EQ(FirstWindowStartFor(spec, -1), -15);
}

/// Property sweep: count of assigned windows == ceil(range/slide) away
/// from alignment effects, and all starts are distinct and consecutive.
class AssignerSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(AssignerSweep, AssignmentInvariants) {
  const auto [range, slide] = GetParam();
  const WindowSpec spec = WindowSpec::SlidingTime(range, slide);
  for (std::int64_t coord = -2 * range; coord <= 2 * range;
       coord += range / 3 + 1) {
    const auto windows = AssignWindows(spec, coord);
    ASSERT_FALSE(windows.empty());
    EXPECT_LE(windows.size(),
              static_cast<std::size_t>(spec.WindowsPerCoordinate()));
    for (std::size_t i = 0; i < windows.size(); ++i) {
      EXPECT_TRUE(windows[i].Contains(coord));
      if (i > 0) {
        EXPECT_EQ(windows[i].start, windows[i - 1].start + slide);
      }
    }
  }
}

// ForEachWindow and AssignWindows both yield exactly the windows a
// brute-force scan of aligned starts finds, in ascending start order.
TEST_P(AssignerSweep, ForEachWindowAgreesWithBruteForce) {
  const auto [range, slide] = GetParam();
  const WindowSpec spec = WindowSpec::SlidingTime(range, slide);
  for (std::int64_t coord = -3 * range - 1; coord <= 3 * range + 1;
       ++coord) {
    std::vector<WindowBounds> expected;
    // Aligned starts (multiples of slide) covering every coord swept.
    for (std::int64_t s = -(6 * range / slide) * slide; s <= 6 * range;
         s += slide) {
      if (s <= coord && coord < s + range) {
        expected.push_back(WindowBounds{s, s + range});
      }
    }
    std::vector<WindowBounds> walked;
    ForEachWindow(spec, coord,
                  [&](const WindowBounds& w) { walked.push_back(w); });
    EXPECT_EQ(walked, expected) << "coord " << coord;
    EXPECT_EQ(AssignWindows(spec, coord), expected) << "coord " << coord;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AssignerSweep,
    ::testing::Values(std::make_tuple(10L, 10L), std::make_tuple(10L, 5L),
                      std::make_tuple(15L, 5L), std::make_tuple(100L, 33L),
                      std::make_tuple(7L, 2L), std::make_tuple(1L, 1L),
                      std::make_tuple(45L, 15L), std::make_tuple(12L, 5L),
                      std::make_tuple(9L, 9L), std::make_tuple(10L, 3L)));

}  // namespace
}  // namespace spear
