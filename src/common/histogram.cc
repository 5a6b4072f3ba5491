#include "common/histogram.h"

#include <algorithm>
#include <cassert>

namespace sora {

LinearHistogram::LinearHistogram(double bucket_width, std::size_t num_buckets)
    : width_(bucket_width), counts_(num_buckets, 0) {
  assert(bucket_width > 0.0 && num_buckets > 0);
}

void LinearHistogram::record(double value) { record_n(value, 1); }

void LinearHistogram::record_n(double value, std::uint64_t n) {
  if (n == 0) return;
  const double v = std::max(value, 0.0);
  auto idx = static_cast<std::size_t>(v / width_);
  idx = std::min(idx, counts_.size() - 1);
  counts_[idx] += n;
  total_ += n;
}

void LinearHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

double LinearHistogram::bucket_center(std::size_t i) const {
  return (static_cast<double>(i) + 0.5) * width_;
}

}  // namespace sora
