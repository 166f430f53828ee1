// Snapshot serialization and fleet folding: exact JSON round-trip, the
// associative merge, and Prometheus text exposition. Kept apart from
// metrics.cpp so the registry's hot-path translation unit stays free of
// formatting code.
//
// Exactness contract: write_json emits 64-bit integers as plain integer
// tokens and doubles in std::to_chars shortest-round-trip form, so
// read_json(write_json(s)) == s to the bit — including counters past 2^53
// and the reservoir's splitmix64 state. Prometheus is export-only: it is
// lossier by design (quantile reservoirs are not in the exposition, gauge
// timestamps are millisecond-granular), so nothing parses it back.
#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "obs/json.hpp"

namespace hgc::obs {

std::uint64_t HistogramSnapshot::total() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : counts) n += c;
  return n;
}

std::uint64_t Snapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Snapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second.value;
}

// ------------------------------------------------------------ json writer --

namespace {

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_json_double(std::ostream& os, double v) {
  // JSON has no Infinity/NaN; null keeps the file parseable (and reads
  // back as 0 — metrics values are finite in practice).
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, result.ptr - buf);
}

double json_number(const JsonValue& v) {
  if (v.type == JsonValue::Type::kNull) return 0.0;  // non-finite placeholder
  if (v.type != JsonValue::Type::kNumber)
    throw std::runtime_error("snapshot: expected a number");
  return v.number;
}

}  // namespace

void Snapshot::write_json(std::ostream& os, bool compact) const {
  // Pretty output puts one instrument per line; compact (the recorder's
  // JSONL row format) collapses all whitespace. Same tokens either way.
  const char* nl = compact ? "" : "\n";
  const char* ind1 = compact ? "" : "  ";
  const char* ind2 = compact ? "" : "    ";
  const char* co = compact ? ":" : ": ";

  os << '{' << nl;
  os << ind1 << "\"snapshot_unix_ns\"" << co << unix_ns << ',' << nl;

  os << ind1 << "\"counters\"" << co << '{';
  const char* sep = "";
  for (const auto& [name, value] : counters) {
    os << sep << nl << ind2;
    write_json_string(os, name);
    os << co << value;
    sep = ",";
  }
  os << (counters.empty() ? "" : nl) << (counters.empty() ? "" : ind1) << "},"
     << nl;

  os << ind1 << "\"gauges\"" << co << '{';
  sep = "";
  for (const auto& [name, g] : gauges) {
    os << sep << nl << ind2;
    write_json_string(os, name);
    os << co << "{\"value\"" << co;
    write_json_double(os, g.value);
    os << (compact ? "," : ", ") << "\"ts_unix_ns\"" << co << g.ts_unix_ns
       << '}';
    sep = ",";
  }
  os << (gauges.empty() ? "" : nl) << (gauges.empty() ? "" : ind1) << "},"
     << nl;

  const char* isp = compact ? "," : ", ";

  os << ind1 << "\"histograms\"" << co << '{';
  sep = "";
  for (const auto& [name, h] : histograms) {
    os << sep << nl << ind2;
    write_json_string(os, name);
    os << co << "{\"bounds\"" << co << '[';
    const char* isep = "";
    for (double b : h.bounds) {
      os << isep;
      write_json_double(os, b);
      isep = isp;
    }
    os << "]" << isp << "\"counts\"" << co << '[';
    isep = "";
    for (std::uint64_t c : h.counts) {
      os << isep << c;
      isep = isp;
    }
    os << "]" << isp << "\"sum\"" << co;
    write_json_double(os, h.sum);
    os << isp << "\"total\"" << co << h.total() << '}';
    sep = ",";
  }
  os << (histograms.empty() ? "" : nl) << (histograms.empty() ? "" : ind1)
     << "}," << nl;

  os << ind1 << "\"stats\"" << co << '{';
  sep = "";
  for (const auto& [name, s] : stats) {
    os << sep << nl << ind2;
    write_json_string(os, name);
    os << co << "{\"count\"" << co << s.count() << isp << "\"mean\"" << co;
    write_json_double(os, s.mean());
    os << isp << "\"m2\"" << co;
    write_json_double(os, s.m2());
    os << isp << "\"min\"" << co;
    write_json_double(os, s.min());
    os << isp << "\"max\"" << co;
    write_json_double(os, s.max());
    // Derived, ignored by read_json — kept for humans reading the file.
    os << isp << "\"stddev\"" << co;
    write_json_double(os, s.stddev());
    os << '}';
    sep = ",";
  }
  os << (stats.empty() ? "" : nl) << (stats.empty() ? "" : ind1) << "},"
     << nl;

  os << ind1 << "\"quantiles\"" << co << '{';
  sep = "";
  for (const auto& [name, q] : quantiles) {
    os << sep << nl << ind2;
    write_json_string(os, name);
    os << co << "{\"count\"" << co << q.count() << isp << "\"capacity\"" << co
       << q.capacity() << isp << "\"state\"" << co << q.rng_state() << isp
       << "\"sample\"" << co << '[';
    const char* isep = "";
    for (double x : q.retained()) {
      os << isep;
      write_json_double(os, x);
      isep = isp;
    }
    os << ']';
    if (q.count() > 0) {
      // Derived, ignored by read_json.
      os << isp << "\"p50\"" << co;
      write_json_double(os, q.p50());
      os << isp << "\"p95\"" << co;
      write_json_double(os, q.p95());
      os << isp << "\"p99\"" << co;
      write_json_double(os, q.p99());
    }
    os << '}';
    sep = ",";
  }
  os << (quantiles.empty() ? "" : nl) << (quantiles.empty() ? "" : ind1)
     << '}' << nl;

  os << '}';
  if (!compact) os << '\n';
}

// ------------------------------------------------------------ json reader --

Snapshot Snapshot::read_json(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return read_json(buf.str());
}

Snapshot Snapshot::read_json(const std::string& text) {
  const JsonValue root = parse_json(text);
  if (root.type != JsonValue::Type::kObject)
    throw std::runtime_error("snapshot: top level must be an object");

  Snapshot s;
  if (root.has("snapshot_unix_ns"))
    s.unix_ns = root.at("snapshot_unix_ns").as_i64();

  if (root.has("counters"))
    for (const auto& [name, v] : root.at("counters").object)
      s.counters[name] = v.as_u64();

  if (root.has("gauges"))
    for (const auto& [name, v] : root.at("gauges").object) {
      if (v.type == JsonValue::Type::kObject) {
        s.gauges[name] = GaugeSnapshot{json_number(v.at("value")),
                                       v.at("ts_unix_ns").as_i64()};
      } else {
        // PR 6 format: gauges were bare numbers with no snapshot time.
        s.gauges[name] = GaugeSnapshot{json_number(v), 0};
      }
    }

  if (root.has("histograms"))
    for (const auto& [name, v] : root.at("histograms").object) {
      HistogramSnapshot h;
      for (const JsonValue& b : v.at("bounds").array)
        h.bounds.push_back(json_number(b));
      for (const JsonValue& c : v.at("counts").array)
        h.counts.push_back(c.as_u64());
      if (h.counts.size() != h.bounds.size() + 1)
        throw std::runtime_error("snapshot: histogram '" + name +
                                 "' counts/bounds size mismatch");
      h.sum = v.has("sum") ? json_number(v.at("sum")) : 0.0;  // PR 6: no sum
      s.histograms[name] = std::move(h);
    }

  if (root.has("stats"))
    for (const auto& [name, v] : root.at("stats").object) {
      const std::uint64_t count = v.at("count").as_u64();
      double m2 = 0.0;
      if (v.has("m2")) {
        m2 = json_number(v.at("m2"));
      } else if (v.has("stddev") && count > 1) {
        // PR 6 format carried only the derived stddev; invert it. Lossy to
        // rounding, which is the best a legacy file permits.
        const double sd = json_number(v.at("stddev"));
        m2 = sd * sd * static_cast<double>(count - 1);
      }
      s.stats[name] = RunningStats::from_parts(
          count, count ? json_number(v.at("mean")) : 0.0, m2,
          count ? json_number(v.at("min")) : 0.0,
          count ? json_number(v.at("max")) : 0.0);
    }

  if (root.has("quantiles"))
    for (const auto& [name, v] : root.at("quantiles").object) {
      const std::uint64_t count = v.at("count").as_u64();
      if (v.has("capacity")) {
        std::vector<double> sample;
        for (const JsonValue& x : v.at("sample").array)
          sample.push_back(json_number(x));
        s.quantiles.emplace(
            name, ReservoirQuantiles::from_parts(v.at("capacity").as_u64(),
                                                 v.at("state").as_u64(), count,
                                                 std::move(sample)));
      } else {
        // PR 6 format kept only count + derived percentiles: the reservoir
        // is unrecoverable, so restore the count over an empty sample.
        s.quantiles.emplace(name, ReservoirQuantiles::from_parts(
                                      1024, 0x5eed, count, {}));
      }
    }

  return s;
}

// ------------------------------------------------------------------ merge --

void Snapshot::merge(const Snapshot& other) {
  unix_ns = std::max(unix_ns, other.unix_ns);

  for (const auto& [name, v] : other.counters) counters[name] += v;

  for (const auto& [name, g] : other.gauges) {
    const auto [it, inserted] = gauges.emplace(name, g);
    if (inserted) continue;
    // Last-write-wins by snapshot time; ties break toward the larger value
    // so the resolution is a total order and merge stays commutative.
    if (std::tie(g.ts_unix_ns, g.value) >
        std::tie(it->second.ts_unix_ns, it->second.value))
      it->second = g;
  }

  for (const auto& [name, h] : other.histograms) {
    const auto [it, inserted] = histograms.emplace(name, h);
    if (inserted) continue;
    if (it->second.bounds != h.bounds)
      throw std::invalid_argument("snapshot: histogram '" + name +
                                  "' merged with different bucket bounds");
    for (std::size_t b = 0; b < h.counts.size(); ++b)
      it->second.counts[b] += h.counts[b];
    it->second.sum += h.sum;
  }

  for (const auto& [name, st] : other.stats) stats[name].merge(st);

  for (const auto& [name, q] : other.quantiles) {
    // emplace a copy rather than merging into a default-constructed
    // reservoir: the copy preserves the operand's capacity and stream state.
    const auto [it, inserted] = quantiles.emplace(name, q);
    if (!inserted) it->second.merge(q);
  }
}

// ------------------------------------------------------------- prometheus --

namespace {

/// `decode_cache.hits` -> `hgc_decode_cache_hits`.
std::string prom_name(const std::string& dotted) {
  std::string out = "hgc_";
  for (char c : dotted)
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  return out;
}

void prom_value(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
    return;
  }
  if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, result.ptr - buf);
}

}  // namespace

void Snapshot::write_prometheus(std::ostream& os) const {
  // `# HELP` carries the original dotted name (plus an `hgc:` marker naming
  // the registry kind a family was flattened from).
  if (unix_ns != 0) {
    os << "# HELP hgc_snapshot_unix_ns snapshot wall time, unix ns\n"
          "# TYPE hgc_snapshot_unix_ns gauge\n"
          "hgc_snapshot_unix_ns "
       << unix_ns << "\n";
  }

  for (const auto& [name, v] : counters) {
    const std::string f = prom_name(name) + "_total";
    os << "# HELP " << f << ' ' << name << "\n# TYPE " << f << " counter\n"
       << f << ' ' << v << "\n";
  }

  for (const auto& [name, g] : gauges) {
    const std::string f = prom_name(name);
    os << "# HELP " << f << ' ' << name << "\n# TYPE " << f << " gauge\n"
       << f << ' ';
    prom_value(os, g.value);
    if (g.ts_unix_ns != 0) os << ' ' << g.ts_unix_ns / 1'000'000;
    os << "\n";
  }

  for (const auto& [name, h] : histograms) {
    const std::string f = prom_name(name);
    os << "# HELP " << f << ' ' << name << "\n# TYPE " << f << " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      cum += h.counts[b];
      os << f << "_bucket{le=\"";
      prom_value(os, h.bounds[b]);
      os << "\"} " << cum << "\n";
    }
    cum += h.counts.back();
    os << f << "_bucket{le=\"+Inf\"} " << cum << "\n";
    os << f << "_sum ";
    prom_value(os, h.sum);
    os << "\n" << f << "_count " << cum << "\n";
  }

  for (const auto& [name, s] : stats) {
    const std::string f = prom_name(name);
    os << "# HELP " << f << ' ' << name << " hgc:stat\n# TYPE " << f
       << " summary\n";
    os << f << "_sum ";
    prom_value(os, s.sum());
    os << "\n" << f << "_count " << s.count() << "\n";
    const std::pair<const char*, double> parts[] = {
        {"_mean", s.mean()}, {"_min", s.min()},
        {"_max", s.max()},   {"_stddev", s.stddev()}};
    for (const auto& [suffix, value] : parts) {
      os << "# HELP " << f << suffix << ' ' << name
         << " hgc:stat-part\n# TYPE " << f << suffix << " gauge\n"
         << f << suffix << ' ';
      prom_value(os, value);
      os << "\n";
    }
  }

  for (const auto& [name, q] : quantiles) {
    const std::string f = prom_name(name);
    os << "# HELP " << f << ' ' << name << " hgc:quantile\n# TYPE " << f
       << " summary\n";
    if (q.count() > 0) {
      const std::pair<const char*, double> qs[] = {
          {"0.5", q.p50()}, {"0.95", q.p95()}, {"0.99", q.p99()}};
      for (const auto& [label, value] : qs) {
        os << f << "{quantile=\"" << label << "\"} ";
        prom_value(os, value);
        os << "\n";
      }
    }
    os << f << "_count " << q.count() << "\n";
  }
}

}  // namespace hgc::obs
