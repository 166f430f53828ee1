// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around calls into the
// library's public functions; nothing inside the library is instrumented.
// Each span has a name (the layer it measures), a start and an end on
// std::chrono::steady_clock, the id of the span that caused it, and the id
// of the repetition it belongs to. Spans stay in per-thread buffers until
// the repetition ends; collect() gathers them once every worker thread has
// been joined.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover (children may run on other threads and overlap).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< static string; the layer the span measures
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t rep = 0;     ///< repetition this span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;  ///< recorder-assigned thread number
  int tag = -1;              ///< scheme index for per-scheme splits, or -1
  std::uint64_t count = 0;   ///< work done inside (e.g. engine events)

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

/// Process-wide recorder. Enabling and collecting happen on the main thread
/// while no worker thread runs; recording happens on any thread.
class SpanRecorder {
 public:
  static SpanRecorder& global();

  bool enabled() const { return enabled_; }
  /// Start recording spans for repetition `rep` (ids start fresh).
  void begin(std::uint64_t rep);
  /// Stop recording and return every span of the repetition.
  std::vector<Span> collect();

  // Used by ScopedSpan: the calling thread's next span id (its thread
  // number in the high bits, so threads never contend for ids) and its
  // buffer.
  std::uint64_t next_id();
  std::uint64_t rep() const { return rep_; }
  void push(const Span& span);

 private:
  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::uint64_t next_local = 0;  ///< reset by begin()
    std::vector<Span> spans;
  };
  /// Hands a buffer back to the free list when its thread exits, so the
  /// thread pools the sweeps create and join reuse buffers (and their
  /// capacity) instead of growing new ones.
  struct Lease {
    ThreadBuffer* buffer = nullptr;
    ~Lease();
  };
  ThreadBuffer& buffer();

  bool enabled_ = false;
  std::uint64_t rep_ = 0;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
  std::vector<ThreadBuffer*> free_;                     // guarded by mu_
};

/// RAII span. When the recorder is off it records nothing. `parent` = 0
/// takes the innermost open span on this thread as the parent; cell spans on
/// pool threads pass their sweep span's id instead.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int tag = -1, std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  void set_count(std::uint64_t count) { span_.count = count; }

 private:
  Span span_;
  bool active_ = false;
};

/// Id of the innermost open span on the calling thread (0 = none).
std::uint64_t current_span();

/// Self time per span, indexed like `spans`.
std::vector<double> self_seconds(const std::vector<Span>& spans);

/// Structural check of one repetition's spans: every parent exists, every
/// child lies inside its parent's interval, and spans sharing a parent and
/// a thread do not overlap. Returns "" when the tree is well formed, else a
/// description of the first violation.
std::string check_nesting(const std::vector<Span>& spans);

/// Per-name totals of one repetition.
struct LayerTotals {
  std::map<std::string, double> self_s;   ///< Σ self time per span name
  std::map<std::string, double> total_s;  ///< Σ duration per span name
  std::map<std::string, std::uint64_t> calls;
  std::map<std::string, std::uint64_t> count;  ///< Σ Span::count
  /// Per (name, tag) duration and self time for tagged spans.
  std::map<std::pair<std::string, int>, double> tagged_total_s;
  std::map<std::pair<std::string, int>, double> tagged_self_s;
  std::map<std::pair<std::string, int>, std::uint64_t> tagged_calls;
};
LayerTotals layer_totals(const std::vector<Span>& spans);

/// One CSV row per span, times in nanoseconds from the first span's start.
void write_spans_csv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
