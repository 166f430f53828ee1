// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload paper-grid|scale-10k|train-c --seed N --seconds S
//             --trace 0|1 [--out DIR] [--commit ID]
//   perfbench --self-test
//
// One run: generate the workload's inputs from the seed (set-up, timed
// several times), run one untimed reference repetition on one thread, then
// repeat the workload for S seconds. Every repetition's result bytes are
// checked against the reference. With --trace 0 the last stdout line holds
// the end-to-end metrics; with --trace 1 half the time runs untraced and
// half traced, and the last line holds the per-layer metrics. The line
// before it is the run's context (commit, machine, settings, samples).
#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"
#include "selftest.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Taken during static initialization: the closest the program gets to its
// own start without asking the OS.
const std::int64_t g_process_start_ns = now_ns();

/// Set-up passes per run (setup_s is their median): at least kMinSetupPasses
/// and until kSetupSeconds have passed, at most kMaxSetupPasses.
constexpr std::size_t kMinSetupPasses = 7;
constexpr std::size_t kMaxSetupPasses = 101;
constexpr double kSetupSeconds = 0.2;
/// Fewest timed repetitions of an untraced run.
constexpr std::size_t kMinReps = 3;
/// How long the timed phase of a single-threaded workload stays on one CPU
/// (each move costs about a per cent at 100 ms, more below that).
constexpr std::chrono::milliseconds kHopPeriod{100};
/// Largest share of a traced repetition's wall time that may fall outside
/// every layer span.
constexpr double kMaxUnattributedShare = 0.05;

double seconds_since(std::int64_t start_ns) {
  return 1e-9 * static_cast<double>(now_ns() - start_ns);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- minimal JSON writing ----------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// "[a,b,...]" of already-encoded values.
std::string json_array(const std::vector<std::string>& encoded) {
  std::string out = "[";
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    if (i) out += ',';
    out += encoded[i];
  }
  return out + "]";
}

std::string json_numbers(const std::vector<double>& values) {
  std::vector<std::string> encoded;
  for (double v : values) encoded.push_back(json_number(v));
  return json_array(encoded);
}

/// Ordered JSON object built field by field (values already encoded).
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& encoded) {
    fields_.emplace_back(key, encoded);
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return add(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return add(key, json_string(v));
  }
  std::string text() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += json_string(fields_[i].first);
      out += ": ";
      out += fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The "metrics" object: name → {"value", "unit"}.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.add(name, JsonObject().num("value", value).str("unit", unit).text());
  }
  std::string text() const { return metrics_.text(); }

 private:
  JsonObject metrics_;
};

// --- output check ------------------------------------------------------------

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Failed-cell accounting across a run's checked repetitions.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< run-level failures, deduplicated

  void problem(const std::string& what) {
    if (std::find(problems.begin(), problems.end(), what) == problems.end())
      problems.push_back(what);
  }
};

/// Compare one repetition against the reference: a cell fails when it threw
/// or when its CSV row (or, for train-c, its final parameters) differ.
void check_rep(const RepResult& rep, const RepResult& ref, Checks& checks) {
  checks.attempted += rep.cells;
  std::set<std::size_t> bad(rep.error_rows.begin(), rep.error_rows.end());
  if (!rep.error_rows.empty()) checks.problem("cells threw");
  std::size_t offset = 0;
  for (std::size_t f = 0; f < ref.csv.size(); ++f) {
    const std::vector<std::string> want = lines_of(ref.csv[f]);
    const std::vector<std::string> got =
        f < rep.csv.size() ? lines_of(rep.csv[f]) : std::vector<std::string>{};
    const std::size_t rows = want.empty() ? 0 : want.size() - 1;
    const bool header_ok = !got.empty() && !want.empty() && got[0] == want[0];
    for (std::size_t r = 0; r < rows; ++r)
      if (!header_ok || r + 1 >= got.size() || got[r + 1] != want[r + 1])
        bad.insert(offset + r);
    if (got.size() != want.size()) checks.problem("row count differs");
    offset += rows;
  }
  for (std::size_t c = 0; c < ref.params.size(); ++c) {
    const hgc::Vector& a = ref.params[c];
    const hgc::Vector& b = c < rep.params.size() ? rep.params[c] : hgc::Vector{};
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0)
      bad.insert(c);
  }
  if (!bad.empty()) checks.problem("result bytes differ from the reference");
  if (rep.rounds_undecodable != ref.rounds_undecodable) {
    checks.problem("undecodable round count differs from the reference");
    for (std::size_t c = 0; c < rep.cells; ++c) bad.insert(c);
  }
  checks.failed += bad.size();
}

// --- runs ----------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string commit = "unknown";
  bool self_test = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--out") args.out = value;
    else if (key == "--commit") args.commit = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (!args.self_test && args.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// CPUs the process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

/// Restrict the calling thread (and the pool threads it creates from now
/// on, which inherit its mask) to `cpus`.
void set_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// From a thread of its own, pins every other thread of the process to the
/// next CPU of `cpus` in turn, every `period`, until destroyed; then gives
/// them all of `cpus` back. Threads created meanwhile (a sweep's pool)
/// inherit their creator's CPU and move with the next turn.
class CpuHopper {
 public:
  CpuHopper(const std::vector<int>& cpus, std::chrono::milliseconds period)
      : period_(period) {
    CPU_ZERO(&all_);
    for (int cpu : cpus) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      CPU_SET(cpu, &all_);
      turns_.push_back(one);
    }
    thread_ = std::thread([this] { loop(); });
  }

  ~CpuHopper() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  CpuHopper(const CpuHopper&) = delete;
  CpuHopper& operator=(const CpuHopper&) = delete;

 private:
  // The hopper thread must not allocate: glibc gives a thread its own
  // malloc arena at its first allocation, and one more arena would change
  // the heap (and the peak RSS) the workload's threads see.
  void loop() {
    const pid_t self = gettid();
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t turn = 0; !stop_; ++turn) {
      pin_others(self, turns_[turn % turns_.size()]);
      cv_.wait_for(lock, period_, [this] { return stop_; });
    }
    pin_others(self, all_);
  }

  static void pin_others(pid_t self, const cpu_set_t& set) {
    const int fd = open("/proc/self/task", O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return;
    alignas(dirent64) char buf[4096];
    for (ssize_t n; (n = getdents64(fd, buf, sizeof(buf))) > 0;) {
      for (ssize_t off = 0; off < n;) {
        const auto* entry = reinterpret_cast<const dirent64*>(buf + off);
        off += entry->d_reclen;
        const auto tid = static_cast<pid_t>(std::atoi(entry->d_name));
        if (tid > 0 && tid != self) sched_setaffinity(tid, sizeof(set), &set);
      }
    }
    close(fd);
  }

  const std::chrono::milliseconds period_;
  std::vector<cpu_set_t> turns_;
  cpu_set_t all_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

/// Peak resident set in MiB. VmHWM belongs to the process image, while
/// getrusage's ru_maxrss also carries the high-water mark of whatever ran
/// before exec (the Python launcher), so prefer the former.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string describe_inputs(const Inputs& inputs) {
  std::string out;
  for (const hgc::exec::FigureSweep& figure : inputs.figures) {
    if (!out.empty()) out += ", ";
    out += figure.name + " " + std::to_string(figure.grid.num_cells()) +
           " cells x " + std::to_string(figure.grid.iterations) + " it";
  }
  if (inputs.data)
    out += "; dataset " + std::to_string(inputs.data->size()) + " x " +
           std::to_string(inputs.data->dim());
  return out;
}

/// Registry counter deltas over one traced repetition.
struct RegistryDelta {
  hgc::obs::Snapshot before;
  std::uint64_t operator()(const hgc::obs::Snapshot& after,
                           const std::string& name) const {
    return after.counter(name) - before.counter(name);
  }
};

/// Per-layer sums over the traced repetitions.
struct LayerSums {
  std::size_t reps = 0;
  std::map<std::string, double> values;
  std::vector<Span> last_spans;
  void add(const std::string& name, double v) { values[name] += v; }
};

const std::vector<int> kReportedSchemes = {
    static_cast<int>(hgc::SchemeKind::kNaive),
    static_cast<int>(hgc::SchemeKind::kCyclic),
    static_cast<int>(hgc::SchemeKind::kHeterAware),
    static_cast<int>(hgc::SchemeKind::kGroupBased)};

/// Fold one traced repetition into the per-layer sums.
void add_traced_rep(const std::vector<Span>& spans, const DecodeTally& tally,
                    const RegistryDelta& delta,
                    const hgc::obs::Snapshot& after, std::size_t threads,
                    LayerSums& sums, Checks& checks) {
  const std::string nesting = check_nesting(spans);
  if (!nesting.empty()) checks.problem("span nesting: " + nesting);
  const LayerTotals t = layer_totals(spans);
  const auto self = [&](const char* n) {
    const auto it = t.self_s.find(n);
    return it == t.self_s.end() ? 0.0 : it->second;
  };
  const auto total = [&](const char* n) {
    const auto it = t.total_s.find(n);
    return it == t.total_s.end() ? 0.0 : it->second;
  };
  const auto calls = [&](const char* n) {
    const auto it = t.calls.find(n);
    return it == t.calls.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double wall = total("rep");
  const double unattributed = ratio(self("rep"), wall);
  if (unattributed > kMaxUnattributedShare)
    checks.problem("layer spans cover less than 95% of a traced repetition");

  const DecodeCounts decode = tally.total();
  const double rounds = calls("engine.round");

  sums.reps += 1;
  sums.add("exec.cells", calls("exec.cell"));
  sums.add("exec.pool.busy_share",
           ratio(total("exec.cell"), wall * static_cast<double>(threads)));
  sums.add("exec.export_s", self("exec.export"));
  sums.add("exec.self_s", self("exec.sweep") + self("exec.cell"));
  sums.add("exec.unsplit_s", self("exec.unsplit"));
  sums.add("core.construct.calls", calls("core.construct"));
  sums.add("core.construct_s", self("core.construct"));
  sums.add("core.scheme_cache.hit_ratio",
           ratio(static_cast<double>(delta(after, "scheme_cache.hits")),
                 static_cast<double>(delta(after, "scheme_cache.hits") +
                                     delta(after, "scheme_cache.misses"))));
  sums.add("core.decode.checks", static_cast<double>(decode.checks));
  sums.add("core.decode.checks_per_round",
           ratio(static_cast<double>(decode.checks), rounds));
  sums.add("core.decode.useful_ratio",
           ratio(static_cast<double>(decode.successes),
                 static_cast<double>(decode.checks)));
  sums.add("core.decode.solves", static_cast<double>(decode.solves));
  sums.add("core.decode_s", self("core.decode") + self("core.decode.solve"));
  sums.add("core.decode.solve_s", self("core.decode.solve"));
  sums.add("core.decode.unsplit_solves",
           static_cast<double>(delta(after, "decode.solves")) -
               static_cast<double>(decode.registry_solves));
  sums.add("core.decode_cache.hit_ratio",
           ratio(static_cast<double>(delta(after, "decode_cache.hits")),
                 static_cast<double>(delta(after, "decode_cache.hits") +
                                     delta(after, "decode_cache.misses"))));
  sums.add("core.decode.certificate_failures",
           static_cast<double>(tally.certificates.failures));
  sums.values["core.decode.certificate_max_residual"] =
      std::max(sums.values["core.decode.certificate_max_residual"],
               tally.certificates.max_residual);
  if (tally.certificates.failures > 0)
    checks.problem("a decode failed its a.B = 1 certificate");
  for (int tag : kReportedSchemes) {
    const std::string s = scheme_suffix(tag);
    const auto get = [&](const auto& map, const char* name) {
      const auto it = map.find({name, tag});
      return it == map.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto counts = tally.counts.find(tag);
    const double scheme_checks =
        counts == tally.counts.end()
            ? 0.0
            : static_cast<double>(counts->second.checks);
    sums.add("core.decode.checks_per_round." + s,
             ratio(scheme_checks, get(t.tagged_calls, "engine.round")));
    sums.add("core.decode_s." + s, get(t.tagged_self_s, "core.decode") +
                                       get(t.tagged_self_s, "core.decode.solve"));
    sums.add("engine.round_s." + s, get(t.tagged_total_s, "engine.round"));
  }
  sums.add("core.encode_s", self("core.encode"));
  sums.add("engine.round_self_s", self("engine.round"));
  sums.add("engine.events", static_cast<double>(delta(after, "engine.events")));
  const auto events = t.count.find("engine.round");
  sums.add("engine.events_per_s",
           ratio(events == t.count.end() ? 0.0
                                         : static_cast<double>(events->second),
                 self("engine.round")));
  sums.add("engine.rounds_undecodable",
           static_cast<double>(delta(after, "engine.rounds_undecodable")));
  sums.add("engine.reinstantiations",
           static_cast<double>(delta(after, "engine.reinstantiations")));
  sums.add("engine.scenario_s", self("engine.scenario"));
  sums.add("cluster.draw_s", self("cluster.draw"));
  sums.add("ml.gradient_s", self("ml.gradient"));
  sums.add("ml.loss_s", self("ml.loss"));
  sums.add("ml.update_s", self("ml.update"));
  sums.add("linalg.lu_factors",
           static_cast<double>(delta(after, "linalg.lu_factors")));
  sums.add("obs.unattributed_share", unattributed);
  sums.add("obs.harness_s", self("bench.wrap") + self("bench.certify"));
  sums.last_spans = spans;
}

/// Units of the per-layer metrics, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = [] {
    std::vector<std::pair<std::string, std::string>> u = {
        {"exec.cells", "count"},
        {"exec.pool.busy_share", "ratio"},
        {"exec.export_s", "s"},
        {"exec.self_s", "s"},
        {"exec.unsplit_s", "s"},
        {"core.construct.calls", "count"},
        {"core.construct_s", "s"},
        {"core.scheme_cache.hit_ratio", "ratio"},
        {"core.decode.checks", "count"},
        {"core.decode.checks_per_round", "count"},
        {"core.decode.useful_ratio", "ratio"},
        {"core.decode.solves", "count"},
        {"core.decode_s", "s"},
        {"core.decode.solve_s", "s"},
        {"core.decode.unsplit_solves", "count"},
        {"core.decode_cache.hit_ratio", "ratio"},
        {"core.decode.certificate_failures", "count"},
        {"core.decode.certificate_max_residual", "abs"}};
    for (int tag : kReportedSchemes)
      u.emplace_back("core.decode.checks_per_round." + scheme_suffix(tag),
                     "count");
    for (int tag : kReportedSchemes)
      u.emplace_back("core.decode_s." + scheme_suffix(tag), "s");
    for (int tag : kReportedSchemes)
      u.emplace_back("engine.round_s." + scheme_suffix(tag), "s");
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"core.encode_s", "s"},
        {"engine.round_self_s", "s"},
        {"engine.events", "count"},
        {"engine.events_per_s", "1/s"},
        {"engine.rounds_undecodable", "count"},
        {"engine.reinstantiations", "count"},
        {"engine.scenario_s", "s"},
        {"cluster.draw_s", "s"},
        {"ml.gradient_s", "s"},
        {"ml.loss_s", "s"},
        {"ml.update_s", "s"},
        {"linalg.lu_factors", "count"},
        {"obs.trace_overhead_share", "ratio"},
        {"obs.unattributed_share", "ratio"},
        {"obs.harness_s", "s"},
        {"failed_share", "ratio"}};
    u.insert(u.end(), rest.begin(), rest.end());
    return u;
  }();
  return units;
}

int run(const Args& args) {
  const Workload workload = parse_workload(args.workload);
  const std::size_t threads = workload_threads(workload);

  // On a shared host a vCPU's speed depends on where the host runs it and
  // what runs next to it there, and that stays put for as long as the vCPU
  // stays busy. A single-threaded process would inherit one placement's
  // luck for the whole run. So set-up passes rotate over the CPUs, and the
  // timed phase of a single-threaded workload moves to the next CPU every
  // kHopPeriod: a run then averages over hundreds of placements.
  const std::vector<int> cpus = allowed_cpus();
  std::size_t rotation = 0;
  const auto next_cpu = [&] {
    if (cpus.size() > 1) set_cpus({cpus[rotation++ % cpus.size()]});
  };

  // Set-up: one-time initialization, then the inputs, several times over.
  // The first pass is timed from process start.
  std::vector<double> setup_samples;
  Inputs inputs;
  const std::int64_t setup_start = now_ns();
  while (setup_samples.size() < kMinSetupPasses ||
         (seconds_since(setup_start) < kSetupSeconds &&
          setup_samples.size() < kMaxSetupPasses)) {
    const bool first = setup_samples.empty();
    if (!first) next_cpu();
    const std::int64_t start = first ? g_process_start_ns : now_ns();
    if (first) {
      hgc::obs::set_metrics_enabled(true);
      (void)hgc::kernels::active_backend();
    }
    inputs = make_inputs(workload, args.seed);
    setup_samples.push_back(seconds_since(start));
  }
  set_cpus(cpus);

  // Untimed reference on one thread (also the warm-up).
  const RepResult reference = run_rep(inputs, {1, false, true});
  Checks checks;
  if (!reference.error_rows.empty()) checks.problem("reference cells threw");

  const bool hop = threads == 1 && cpus.size() > 1;
  const auto timed_phase = [&](double budget, std::size_t min_reps,
                               bool traced, LayerSums* sums) {
    std::vector<double> samples;
    std::optional<CpuHopper> hopper;
    if (hop) hopper.emplace(cpus, kHopPeriod);
    const std::int64_t start = now_ns();
    while (samples.size() < min_reps || seconds_since(start) < budget) {
      RegistryDelta delta{hgc::obs::Registry::global().snapshot()};
      if (traced) {
        reset_decode_tally();
        SpanRecorder::global().begin(samples.size() + 1);
      }
      const RepResult rep = run_rep(inputs, {threads, traced, true});
      samples.push_back(rep.seconds);
      check_rep(rep, reference, checks);
      if (traced)
        add_traced_rep(SpanRecorder::global().collect(), decode_tally(), delta,
                       hgc::obs::Registry::global().snapshot(), threads,
                       *sums, checks);
    }
    return samples;
  };

  std::vector<double> rep_samples;
  std::vector<double> traced_samples;
  LayerSums sums;
  if (!args.trace) {
    rep_samples = timed_phase(args.seconds, kMinReps, false, nullptr);
  } else {
    rep_samples = timed_phase(args.seconds / 2, 1, false, nullptr);
    traced_samples = timed_phase(args.seconds / 2, 1, true, &sums);
  }

  double timed_total = 0.0;
  for (double s : rep_samples) timed_total += s;
  const double failed_share = ratio(static_cast<double>(checks.failed),
                                    static_cast<double>(checks.attempted));

  MetricSet metrics;
  if (!args.trace) {
    metrics.add("rounds_per_s",
                ratio(static_cast<double>(inputs.rounds * rep_samples.size()),
                      timed_total),
                "1/s");
    metrics.add("rep_s_p50", median(rep_samples), "s");
    metrics.add("setup_s", median(setup_samples), "s");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Per traced repetition, except the run-level figures set below.
    std::map<std::string, double> values;
    for (const auto& [name, sum] : sums.values)
      values[name] = sum / static_cast<double>(sums.reps);
    values["core.decode.certificate_max_residual"] =
        sums.values["core.decode.certificate_max_residual"];
    values["obs.trace_overhead_share"] =
        ratio(median(traced_samples), median(rep_samples)) - 1.0;
    values["failed_share"] = failed_share;
    for (const auto& [name, unit] : layer_units())
      metrics.add(name, values[name], unit);
  }

  JsonObject context;
  context.str("workload", to_string(workload))
      .num("seed", static_cast<double>(args.seed))
      .num("seconds", args.seconds)
      .num("trace", args.trace ? 1 : 0)
      .str("commit", args.commit)
      .num("nproc", std::thread::hardware_concurrency())
      .str("kernel_backend",
           hgc::kernels::backend_name(hgc::kernels::active_backend()))
      .num("pool_threads", static_cast<double>(threads))
      .num("rotated_cpus", static_cast<double>(cpus.size()))
      .num("hop_ms", hop ? static_cast<double>(kHopPeriod.count()) : 0.0)
      .str("caches",
           "scheme cache on, decoding cache 256 per cell, metrics registry "
           "on, library tracer off")
      .str("inputs", describe_inputs(inputs))
      .num("cells_per_rep", static_cast<double>(inputs.cells))
      .num("rounds_per_rep", static_cast<double>(inputs.rounds))
      .add("setup_s_samples", json_numbers(setup_samples))
      .add("rep_s_samples", json_numbers(rep_samples))
      .num("rep_s_p50", median(rep_samples))
      .add("traced_rep_s_samples", json_numbers(traced_samples))
      .num("reference_s", reference.seconds)
      .num("rounds_undecodable_per_rep",
           static_cast<double>(reference.rounds_undecodable))
      .num("failed_share", failed_share);
  std::vector<std::string> problems;
  for (const std::string& p : checks.problems) problems.push_back(json_string(p));
  context.add("problems", json_array(problems));

  JsonObject result;
  result.add("correct", checks.failed == 0 && checks.problems.empty() ? "true"
                                                                      : "false")
      .num("attempted", static_cast<double>(checks.attempted))
      .num("failed", static_cast<double>(checks.failed))
      .add("metrics", metrics.text());

  if (!args.out.empty()) {
    std::filesystem::create_directories(args.out);
    const std::string name = args.out + "/" + to_string(workload);
    const std::string stem = name + "-seed" + std::to_string(args.seed) +
                             "-trace" + (args.trace ? "1" : "0");
    std::ofstream(stem + ".json")
        << JsonObject().add("context", context.text())
                        .add("result", result.text())
                        .text()
        << "\n";
    // Spans of the last traced repetition; one file per workload.
    if (args.trace) write_spans_csv(sums.last_spans, name + ".spans.csv");
  }
  std::cout << JsonObject().add("context", context.text()).text() << "\n";
  std::cout << result.text() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (args.self_test) return perfbench::run_self_test();
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
