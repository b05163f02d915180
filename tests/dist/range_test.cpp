#include "dist/range.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace homp::dist {
namespace {

TEST(Range, BasicProperties) {
  Range r(3, 10);
  EXPECT_EQ(r.size(), 7);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.contains(3));
  EXPECT_TRUE(r.contains(9));
  EXPECT_FALSE(r.contains(10));
  EXPECT_TRUE(Range(5, 5).empty());
  EXPECT_EQ(Range(8, 2).size(), 0);
}

TEST(Range, Intersect) {
  EXPECT_EQ(Range(0, 10).intersect(Range(5, 15)), Range(5, 10));
  EXPECT_TRUE(Range(0, 5).intersect(Range(7, 9)).empty());
  EXPECT_EQ(Range(0, 10).intersect(Range(2, 3)), Range(2, 3));
}

TEST(Range, WidenAndClamp) {
  Range owned(4, 8);
  Range fp = owned.widened(2, 3);
  EXPECT_EQ(fp, Range(2, 11));
  EXPECT_EQ(fp.clamped_to(Range(0, 10)), Range(2, 10));
  EXPECT_EQ(Range(0, 2).widened(5, 0).clamped_to(Range(0, 10)), Range(0, 2));
}

TEST(Range, ScaledPreservesTiling) {
  // Adjacent ranges scaled by an integral ratio stay adjacent — the
  // ALIGN(loop, 16) case in block matching.
  Range a(0, 3), b(3, 7);
  EXPECT_EQ(a.scaled(16.0).hi, b.scaled(16.0).lo);
  EXPECT_EQ(a.scaled(16.0), Range(0, 48));
}

TEST(Range, ContainsRange) {
  EXPECT_TRUE(Range(0, 10).contains(Range(2, 5)));
  EXPECT_TRUE(Range(0, 10).contains(Range(7, 7)));  // empty always inside
  EXPECT_FALSE(Range(0, 10).contains(Range(5, 11)));
}

TEST(ExactCover, DetectsGapsAndOverlaps) {
  Range domain(0, 10);
  EXPECT_TRUE(exactly_covers(domain, {{0, 4}, {4, 10}}));
  EXPECT_TRUE(exactly_covers(domain, {{4, 10}, {0, 4}}));  // order-free
  EXPECT_TRUE(exactly_covers(domain, {{0, 4}, {4, 4}, {4, 10}}));  // empties ok
  EXPECT_FALSE(exactly_covers(domain, {{0, 4}, {5, 10}}));   // gap
  EXPECT_FALSE(exactly_covers(domain, {{0, 6}, {4, 10}}));   // overlap
  EXPECT_FALSE(exactly_covers(domain, {{0, 10}, {0, 10}}));  // duplicate
  EXPECT_TRUE(exactly_covers(Range(5, 5), {}));              // empty domain
}

TEST(Region, VolumeAndContains) {
  Region r = Region::of_shape({4, 5});
  EXPECT_EQ(r.rank(), 2u);
  EXPECT_EQ(r.volume(), 20);
  Region sub({Range(1, 3), Range(0, 5)});
  EXPECT_TRUE(r.contains(sub));
  EXPECT_EQ(sub.volume(), 10);
  EXPECT_FALSE(sub.contains(r));
}

TEST(Region, WithDimAndIntersect) {
  Region r = Region::of_shape({6, 6});
  Region s = r.with_dim(0, Range(2, 4));
  EXPECT_EQ(s.dim(0), Range(2, 4));
  EXPECT_EQ(s.dim(1), Range(0, 6));
  Region t = s.intersect(r.with_dim(0, Range(3, 6)));
  EXPECT_EQ(t.dim(0), Range(3, 4));
}

TEST(Region, RankMismatchThrows) {
  Region a = Region::of_shape({4});
  Region b = Region::of_shape({4, 4});
  EXPECT_THROW(a.intersect(b), homp::ConfigError);
  EXPECT_THROW(a.contains(b), homp::ConfigError);
}

TEST(Region, RankAboveThreeThrows) {
  // Regions hold their ranges inline; HostArray and ArrayView stop at
  // rank 3 as well.
  EXPECT_THROW(Region::of_shape({2, 2, 2, 2}), homp::ConfigError);
  EXPECT_THROW(Region({Range(0, 1), Range(0, 1), Range(0, 1), Range(0, 1)}),
               homp::ConfigError);
  EXPECT_EQ(Region::of_shape({2, 2, 2}).volume(), 8);
}

TEST(Region, EqualityIgnoresUnusedInlineSlots) {
  // A rank-1 region's unused slots read [0:0); a rank-2 region whose
  // second dimension is [0:0) matches them slot for slot but still
  // differs in rank.
  const Region one({Range(0, 4)});
  EXPECT_EQ(one, Region::of_shape({4}));
  EXPECT_NE(one, Region({Range(0, 4), Range(0, 0)}));
  EXPECT_NE(one, Region({Range(0, 5)}));
  const Region wide = Region::of_shape({4, 7}).with_dim(1, Range(2, 3));
  EXPECT_EQ(wide, Region({Range(0, 4), Range(2, 3)}));
  EXPECT_EQ(Region(), Region::of_shape({}));
}

}  // namespace
}  // namespace homp::dist
