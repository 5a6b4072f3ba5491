// Tests for the fixed-grid linear histogram.
#include "common/histogram.h"

#include <gtest/gtest.h>

namespace sora {
namespace {

TEST(LinearHistogram, BucketsAndClamping) {
  LinearHistogram h(10.0, 5);  // [0,50) in 5 buckets
  h.record(0.0);
  h.record(9.99);
  h.record(10.0);
  h.record(49.0);
  h.record(500.0);  // clamps into last bucket
  h.record(-3.0);   // clamps to 0
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bucket_count(0), 3u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_center(0), 5.0);
  EXPECT_DOUBLE_EQ(h.bucket_center(4), 45.0);
}

TEST(LinearHistogram, Reset) {
  LinearHistogram h(1.0, 3);
  h.record(1.5);
  h.reset();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.bucket_count(1), 0u);
}

}  // namespace
}  // namespace sora
