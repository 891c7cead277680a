// Outside-in span tracer for the benchmark's traced run.
//
// Spans are opened and closed around calls into library layers (by the
// Timed* decorators and the workload code) and nest on a stack. Each
// span name keeps its count, total time and self time in memory — self
// time is the span's duration minus the time its child spans cover — and
// the totals are written out once, when the run ends. The root span
// ("bench") therefore ends with self time equal to whatever no layer span
// claimed, which is what bench.unattributed_share reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  // Returns a stable id for `name`; intern once, outside hot loops.
  int Intern(std::string_view name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    names_.emplace_back(name);
    stats_.emplace_back();
    return static_cast<int>(names_.size() - 1);
  }

  void Enter(int id) { stack_.push_back(Open{id, NowNs(), 0}); }

  void Exit() {
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = NowNs() - open.start;
    SpanStats& s = stats_[static_cast<std::size_t>(open.id)];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }

  // A deferred span: opened by one callback and closed by whichever layer
  // call comes next (the checkpoint cut between an epoch hook and the
  // protocol's next call). CloseWindow is a no-op when none is open.
  void OpenWindow(int id) {
    Enter(id);
    window_depth_ = stack_.size();
  }
  void CloseWindow() {
    if (window_depth_ != 0 && stack_.size() == window_depth_) {
      window_depth_ = 0;
      Exit();
    }
  }

  const std::vector<std::string>& names() const { return names_; }
  const std::vector<SpanStats>& stats() const { return stats_; }
  SpanStats Get(std::string_view name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return stats_[i];
    }
    return {};
  }

 private:
  struct Open {
    int id;
    std::int64_t start;
    std::int64_t child_ns;
  };
  std::vector<Open> stack_;
  std::vector<std::string> names_;
  std::vector<SpanStats> stats_;
  std::size_t window_depth_ = 0;
};

// RAII span; a null tracer makes it free of clock reads.
class Scope {
 public:
  Scope(Tracer* tracer, int id) : tracer_(tracer) {
    if (tracer_) tracer_->Enter(id);
  }
  ~Scope() {
    if (tracer_) tracer_->Exit();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
