#include "core/estimator.h"

#include <algorithm>

#include "analysis/slot_model.h"

namespace anc::core {

EmbeddedEstimator::EmbeddedEstimator(std::uint64_t frame_size, double omega,
                                     double initial_total,
                                     std::size_t window)
    : frame_size_(frame_size),
      omega_(omega),
      bootstrap_total_(std::max(initial_total, 1.0)),
      window_(window) {
  recent_.reserve(window_);
}

void EmbeddedEstimator::Update(std::uint64_t nc, double p_effective,
                               std::uint64_t acked_at_frame_start) {
  if (p_effective <= 0.0 || p_effective >= 1.0) return;
  const double participating = analysis::EstimateTagsFromCollisions(
      static_cast<double>(nc), frame_size_, p_effective, omega_);
  const double total =
      participating + static_cast<double>(acked_at_frame_start);
  if (nc >= frame_size_) {
    // Saturated frame: `total` is effectively a lower bound. Use it to
    // ramp the bootstrap without polluting the average.
    bootstrap_total_ = std::max(bootstrap_total_, total);
    return;
  }
  ++informative_frames_;
  if (window_ == 0) {
    samples_.Add(total);
  } else {
    // Same sum order as a push-then-evict queue: add the new estimate,
    // then subtract the one it displaces.
    recent_sum_ += total;
    if (recent_.size() < window_) {
      recent_.push_back(total);
    } else {
      recent_sum_ -= recent_[recent_oldest_];
      recent_[recent_oldest_] = total;
      recent_oldest_ = (recent_oldest_ + 1) % window_;
    }
  }
  // An informative frame is fresher evidence than any floor raised during
  // a saturated phase: cap the floor so it tracks the backlog down again.
  if (floor_total_ > 0.0) floor_total_ = std::min(floor_total_, total);
}

double EmbeddedEstimator::EstimatedTotal() const {
  double base = bootstrap_total_;
  if (window_ == 0 && samples_.count() > 0) {
    base = samples_.mean();
  } else if (window_ > 0 && !recent_.empty()) {
    base = recent_sum_ / static_cast<double>(recent_.size());
  }
  return std::max(base, floor_total_);
}

double EmbeddedEstimator::EstimatedBacklog(std::uint64_t acked_now) const {
  return std::max(EstimatedTotal() - static_cast<double>(acked_now), 1.0);
}

void EmbeddedEstimator::RaiseBacklogFloor(std::uint64_t acked_now,
                                          double minimum) {
  floor_total_ =
      std::max(floor_total_, static_cast<double>(acked_now) + minimum);
}

}  // namespace anc::core
