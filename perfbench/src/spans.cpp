#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::vector<std::uint64_t> t_open_spans;

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::begin(std::uint64_t rep) {
  rep_ = rep;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) buf->next_local = 0;
  enabled_ = true;
}

std::vector<Span> SpanRecorder::collect() {
  enabled_ = false;
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    buf->spans.clear();
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::uint64_t SpanRecorder::next_id() {
  ThreadBuffer& buf = buffer();
  return (std::uint64_t{buf.thread} << 40) | ++buf.next_local;
}

SpanRecorder::Lease::~Lease() {
  if (buffer == nullptr) return;
  SpanRecorder& rec = SpanRecorder::global();
  std::lock_guard<std::mutex> lock(rec.mu_);
  rec.free_.push_back(buffer);
}

SpanRecorder::ThreadBuffer& SpanRecorder::buffer() {
  // Buffers live as long as the recorder, so a pool thread that exits
  // leaves its spans behind for collect(); its lease only returns the
  // buffer for the next thread to append to.
  thread_local Lease lease;
  if (lease.buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) {
      buffers_.push_back(std::make_unique<ThreadBuffer>());
      buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
      free_.push_back(buffers_.back().get());
    }
    lease.buffer = free_.back();
    free_.pop_back();
  }
  return *lease.buffer;
}

void SpanRecorder::push(const Span& span) {
  ThreadBuffer& buf = buffer();
  buf.spans.push_back(span);
  buf.spans.back().thread = buf.thread;
}

std::uint64_t current_span() {
  return t_open_spans.empty() ? 0 : t_open_spans.back();
}

ScopedSpan::ScopedSpan(const char* name, int tag, std::uint64_t parent) {
  SpanRecorder& rec = SpanRecorder::global();
  if (!rec.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.tag = tag;
  span_.id = rec.next_id();
  span_.parent = parent != 0 ? parent : current_span();
  span_.rep = rec.rep();
  t_open_spans.push_back(span_.id);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_open_spans.pop_back();
  SpanRecorder::global().push(span_);
}

namespace {

std::unordered_map<std::uint64_t, std::vector<std::size_t>> children_of(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  return children;
}

}  // namespace

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  const auto children = children_of(spans);
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::int64_t covered = 0;
    if (const auto it = children.find(span.id); it != children.end()) {
      cover.clear();
      for (std::size_t c : it->second) {
        const std::int64_t lo = std::max(spans[c].start_ns, span.start_ns);
        const std::int64_t hi = std::min(spans[c].end_ns, span.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
      std::sort(cover.begin(), cover.end());
      std::int64_t reach = span.start_ns;
      for (const auto& [lo, hi] : cover) {
        const std::int64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
    }
    self[i] = 1e-9 * static_cast<double>(span.end_ns - span.start_ns - covered);
  }
  return self;
}

std::string check_nesting(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].end_ns < spans[i].start_ns)
      return std::string("span ") + spans[i].name + " ends before it starts";
    if (!index.emplace(spans[i].id, i).second)
      return "duplicate span id " + std::to_string(spans[i].id);
  }
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto it = index.find(span.parent);
    if (it == index.end())
      return std::string("span ") + span.name + " has no recorded parent";
    const Span& parent = spans[it->second];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns)
      return std::string("span ") + span.name + " leaves its parent " +
             parent.name;
  }
  for (const auto& [parent, kids] : children_of(spans)) {
    std::vector<const Span*> same;
    for (std::size_t c : kids) same.push_back(&spans[c]);
    std::sort(same.begin(), same.end(), [](const Span* a, const Span* b) {
      return a->thread != b->thread ? a->thread < b->thread
                                    : a->start_ns < b->start_ns;
    });
    for (std::size_t i = 1; i < same.size(); ++i)
      if (same[i]->thread == same[i - 1]->thread &&
          same[i]->start_ns < same[i - 1]->end_ns)
        return std::string("sibling spans ") + same[i - 1]->name + " and " +
               same[i]->name + " overlap on one thread";
  }
  return "";
}

LayerTotals layer_totals(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  LayerTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    totals.self_s[span.name] += self[i];
    totals.total_s[span.name] += span.seconds();
    totals.calls[span.name] += 1;
    totals.count[span.name] += span.count;
    if (span.tag >= 0) {
      const auto key = std::make_pair(std::string(span.name), span.tag);
      totals.tagged_total_s[key] += span.seconds();
      totals.tagged_self_s[key] += self[i];
      totals.tagged_calls[key] += 1;
    }
  }
  return totals;
}

void write_spans_csv(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "id,parent,rep,thread,name,tag,start_ns,end_ns,count\n";
  for (const Span& s : spans)
    out << s.id << ',' << s.parent << ',' << s.rep << ',' << s.thread << ','
        << s.name << ',' << s.tag << ',' << s.start_ns - origin << ','
        << s.end_ns - origin << ',' << s.count << '\n';
}

}  // namespace perfbench
