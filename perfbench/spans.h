#ifndef BDIO_PERFBENCH_SPANS_H_
#define BDIO_PERFBENCH_SPANS_H_

// Host-time measurement for bdio_perfbench: a steady clock, a phase
// timer that always measures, and the in-memory span log of the traced run.
// The simulator itself never reads host time (bdio-lint rule R2); the
// benchmark that measures it from outside is the exception.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double HostSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-time spans recorded around the benchmark's calls into each layer.
/// Disabled (the untraced run) it records nothing; enabled, spans are kept
/// in memory and written out once, at exit.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index.
  size_t Begin(const char* name, const char* layer, double start) {
    const size_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back(Span{name, layer, parent, start, start});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void End(size_t index, double end) {
    spans_[index].end = end;
    open_.pop_back();
  }

  /// Self time per layer: each span's duration minus the part its child
  /// spans cover.
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].layer] += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" events, microseconds from the first
  /// span); args carry the span id and its parent's id (-1 at the root).
  bool WriteChromeTrace(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %lld}}%s\n",
                   s.name.c_str(), s.layer.c_str(), (s.start - t0) * 1e6,
                   (s.end - s.start) * 1e6, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static constexpr size_t kNoParent = static_cast<size_t>(-1);
  struct Span {
    std::string name;
    std::string layer;
    size_t parent;
    double start;
    double end;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Times one call into a layer: adds the elapsed host seconds to `*sink`
/// (when given) and, in the traced run, records a span for it.
class Timed {
 public:
  Timed(SpanLog* log, const char* name, const char* layer,
        double* sink = nullptr)
      : log_(log), sink_(sink), start_(HostSeconds()) {
    if (log_->enabled()) span_ = log_->Begin(name, layer, start_);
  }
  ~Timed() {
    const double end = HostSeconds();
    if (sink_ != nullptr) *sink_ += end - start_;
    if (log_->enabled()) log_->End(span_, end);
  }

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog* log_;
  double* sink_;
  double start_;
  size_t span_ = 0;
};

}  // namespace perfbench

#endif  // BDIO_PERFBENCH_SPANS_H_
