#include "selftest.hpp"

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

bool same_bytes(const RepResult& a, const RepResult& b) {
  if (a.csv != b.csv || a.params.size() != b.params.size()) return false;
  for (std::size_t i = 0; i < a.params.size(); ++i)
    if (a.params[i].size() != b.params[i].size() ||
        std::memcmp(a.params[i].data(), b.params[i].data(),
                    a.params[i].size() * sizeof(double)) != 0)
      return false;
  return true;
}

Span span(const char* name, std::uint64_t id, std::uint64_t parent,
          std::int64_t start, std::int64_t end, std::uint32_t thread) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.thread = thread;
  return s;
}

void test_self_time_arithmetic() {
  // rep [0,100] has children a [10,60] (thread 0) and c [40,90] (thread 1);
  // a has child b [20,30]. Covered part of rep: [10,90].
  const std::vector<Span> tree = {span("rep", 1, 0, 0, 100, 0),
                                  span("a", 2, 1, 10, 60, 0),
                                  span("b", 3, 2, 20, 30, 0),
                                  span("c", 4, 1, 40, 90, 1)};
  const std::vector<double> self = self_seconds(tree);
  expect(std::abs(self[0] - 20e-9) < 1e-15 && std::abs(self[1] - 40e-9) < 1e-15 &&
             std::abs(self[2] - 10e-9) < 1e-15 &&
             std::abs(self[3] - 50e-9) < 1e-15,
         "self time = duration minus the union of child intervals");
  expect(check_nesting(tree).empty(), "a well-formed tree nests");

  std::vector<Span> escaped = tree;
  escaped[2].end_ns = 70;  // b outlives its parent a
  expect(!check_nesting(escaped).empty(), "a child leaving its parent is caught");

  std::vector<Span> overlap = tree;
  overlap[3].thread = 0;  // a and c overlap on one thread
  expect(!check_nesting(overlap).empty(),
         "overlapping same-thread siblings are caught");

  std::vector<Span> orphan = tree;
  orphan[2].parent = 99;
  expect(!check_nesting(orphan).empty(), "a missing parent is caught");
}

RepResult traced_rep(const Inputs& inputs, std::size_t threads, bool caches,
                     std::vector<Span>& spans) {
  reset_decode_tally();
  SpanRecorder::global().begin(1);
  RepResult rep = run_rep(inputs, {threads, true, caches});
  spans = SpanRecorder::global().collect();
  return rep;
}

void test_workload(Workload workload) {
  const std::string name = to_string(workload);
  const Inputs inputs = make_inputs(workload, 7, true);
  const RepResult reference = run_rep(inputs, {1, false, true});
  expect(reference.error_rows.empty(), name + ": no cell throws");
  const RepResult again =
      run_rep(inputs, {workload_threads(workload), false, true});
  expect(same_bytes(again, reference),
         name + ": untraced bytes equal at 1 and " +
             std::to_string(workload_threads(workload)) + " threads");

  std::vector<std::size_t> thread_counts = {1};
  if (workload_threads(workload) != 1)
    thread_counts.push_back(workload_threads(workload));
  for (std::size_t threads : thread_counts) {
    const std::string at = name + " traced on " + std::to_string(threads) +
                           " thread(s): ";
    std::vector<Span> spans;
    const RepResult traced = traced_rep(inputs, threads, true, spans);
    expect(same_bytes(traced, reference), at + "result bytes equal untraced");
    expect(check_nesting(spans).empty(), at + "spans nest");
    expect(decode_tally().certificates.failures == 0 &&
               decode_tally().certificates.checked > 0,
           at + "every certified decode satisfies a.B = 1");
    if (threads != 1) continue;
    const std::vector<double> self = self_seconds(spans);
    double wall = 0.0;
    double all = 0.0;
    double layers = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      all += self[i];
      if (spans[i].parent == 0) wall += spans[i].seconds();
      else layers += self[i];
    }
    expect(std::abs(all - wall) <= 1e-6 * wall,
           at + "self times sum to the repetition's wall time");
    expect(layers >= 0.95 * wall && layers <= wall * (1 + 1e-6),
           at + "layer self times cover the wall time within 5%");
  }
}

void test_check_count() {
  // fig3 has only static cells, so every decode solve the registry counts
  // goes through the forwarding scheme.
  Inputs inputs = make_inputs(Workload::kPaperGrid, 7, true);
  inputs.figures.resize(1);
  const hgc::obs::Snapshot before = hgc::obs::Registry::global().snapshot();
  std::vector<Span> spans;
  traced_rep(inputs, 1, false, spans);
  const hgc::obs::Snapshot after = hgc::obs::Registry::global().snapshot();
  const DecodeCounts counts = decode_tally().total();
  const std::uint64_t solves =
      after.counter("decode.solves") - before.counter("decode.solves");
  expect(counts.checks > 0 && counts.checks == counts.solves &&
             counts.checks == solves,
         "uncached grid: forwarding-scheme checks (" +
             std::to_string(counts.checks) +
             ") equal the registry's decode.solves (" +
             std::to_string(solves) + ")");

  // With the caches on, the registry counts each check once and each cache
  // miss once more; the forwarding scheme keeps the same books.
  const hgc::obs::Snapshot cached_before =
      hgc::obs::Registry::global().snapshot();
  traced_rep(inputs, 1, true, spans);
  const hgc::obs::Snapshot cached_after =
      hgc::obs::Registry::global().snapshot();
  const DecodeCounts cached = decode_tally().total();
  const std::uint64_t cached_solves = cached_after.counter("decode.solves") -
                                      cached_before.counter("decode.solves");
  expect(cached.solves < cached.checks &&
             cached.registry_solves == cached_solves,
         "cached grid: registry decode.solves (" +
             std::to_string(cached_solves) + ") = checks + cache misses (" +
             std::to_string(cached.registry_solves) + ")");
}

}  // namespace

int run_self_test() {
  hgc::obs::set_metrics_enabled(true);
  test_self_time_arithmetic();
  for (Workload w : {Workload::kPaperGrid, Workload::kScale10k, Workload::kTrainC})
    test_workload(w);
  test_check_count();
  std::cout << (g_failures == 0 ? "self-test passed" : "self-test FAILED")
            << "\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
