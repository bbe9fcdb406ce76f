/** @file Unit tests for the bandwidth-bloat accounting. */

#include <gtest/gtest.h>

#include "dramcache/bloat.hh"

using namespace bear;

TEST(BloatTracker, StartsEmpty)
{
    BloatTracker t;
    EXPECT_EQ(t.totalBytes(), Bytes{0});
    EXPECT_EQ(t.usefulBytes(), Bytes{0});
    EXPECT_DOUBLE_EQ(t.bloatFactor(), 0.0);
}

TEST(BloatTracker, AlloyHitIsOnePointTwoFive)
{
    // Paper Figure 4: a demand hit moves an 80-byte TAD for 64 useful
    // bytes => the Hit component alone is a 1.25x factor.
    BloatTracker t;
    t.note(BloatCategory::HitProbe, kTadTransfer);
    t.noteUseful();
    EXPECT_DOUBLE_EQ(t.bloatFactor(), 1.25);
    EXPECT_DOUBLE_EQ(t.categoryFactor(BloatCategory::HitProbe), 1.25);
}

TEST(BloatTracker, BwOptIsExactlyOne)
{
    BloatTracker t;
    for (int i = 0; i < 10; ++i) {
        t.note(BloatCategory::HitProbe, kLineSize);
        t.noteUseful();
    }
    EXPECT_DOUBLE_EQ(t.bloatFactor(), 1.0);
}

TEST(BloatTracker, CategoriesSumToTotal)
{
    BloatTracker t;
    t.note(BloatCategory::HitProbe, kTadTransfer);
    t.note(BloatCategory::MissProbe, kTadTransfer);
    t.note(BloatCategory::MissFill, kTadTransfer);
    t.note(BloatCategory::WritebackProbe, kTadTransfer);
    t.note(BloatCategory::WritebackUpdate, kTadTransfer);
    t.note(BloatCategory::WritebackFill, kLineSize);
    t.note(BloatCategory::DirtyEviction, kLineSize);
    EXPECT_EQ(t.totalBytes(), Bytes{80u * 5 + 64 * 2});
    t.noteUseful();
    double sum = 0.0;
    for (std::size_t i = 0; i < BloatTracker::kCategories; ++i)
        sum += t.categoryFactor(static_cast<BloatCategory>(i));
    EXPECT_DOUBLE_EQ(sum, t.bloatFactor());
}

TEST(BloatTracker, ResetClears)
{
    BloatTracker t;
    t.note(BloatCategory::MissFill, kTadTransfer);
    t.noteUseful();
    t.reset();
    EXPECT_EQ(t.totalBytes(), Bytes{0});
    EXPECT_EQ(t.usefulBytes(), Bytes{0});
}

TEST(BloatCategoryNames, AllDistinct)
{
    for (std::size_t i = 0; i < BloatTracker::kCategories; ++i) {
        for (std::size_t j = i + 1; j < BloatTracker::kCategories; ++j) {
            EXPECT_STRNE(
                bloatCategoryName(static_cast<BloatCategory>(i)),
                bloatCategoryName(static_cast<BloatCategory>(j)));
        }
    }
}
