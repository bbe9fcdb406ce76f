/** @file Unit tests for the run-summary statistics. */

#include <gtest/gtest.h>

#include "common/stats.hh"

using namespace bear;

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 2.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({7.0}), 7.0);
}

TEST(Geomean, InsensitiveToOrder)
{
    EXPECT_NEAR(geomean({1.1, 0.9, 1.3}), geomean({1.3, 1.1, 0.9}),
                1e-12);
}
