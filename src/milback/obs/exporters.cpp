#include "milback/obs/exporters.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <vector>

#include "milback/obs/registry.hpp"
#include "milback/obs/span.hpp"

namespace milback::obs {
namespace {

// Shortest round-trip double formatting — deterministic and locale-free.
void append_double(std::string& out, double x) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  out.append(buf, res.ptr);
}

void append_u64(std::string& out, std::uint64_t x) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  out.append(buf, res.ptr);
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

const char* class_label(MetricClass cls) {
  return cls == MetricClass::kSim ? "sim" : "runtime";
}

void append_metric_jsonl(std::string& out, const Registry::MetricSnapshot& m) {
  using Kind = Registry::MetricSnapshot::Kind;
  out += "{\"name\":";
  append_json_string(out, m.name);
  out += ",\"class\":\"";
  out += class_label(m.cls);
  out += "\"";
  switch (m.kind) {
    case Kind::kCounter:
      out += ",\"kind\":\"counter\",\"value\":";
      append_u64(out, m.counter);
      break;
    case Kind::kGauge:
      out += ",\"kind\":\"gauge\",\"set\":";
      out += m.gauge_is_set ? "true" : "false";
      out += ",\"value\":";
      append_double(out, m.gauge);
      break;
    case Kind::kHistogram: {
      out += ",\"kind\":\"histogram\",\"count\":";
      append_u64(out, m.hist.count);
      out += ",\"min\":";
      append_double(out, m.hist.count ? m.hist.min : 0.0);
      out += ",\"max\":";
      append_double(out, m.hist.count ? m.hist.max : 0.0);
      out += ",\"p50\":";
      append_double(out, quantile(m.hist, 50.0));
      out += ",\"p95\":";
      append_double(out, quantile(m.hist, 95.0));
      out += ",\"min_edge\":";
      append_double(out, m.hist.spec.min_edge);
      out += ",\"growth\":";
      append_double(out, m.hist.spec.growth);
      // Sparse bucket encoding: [slot, count] pairs for non-empty slots.
      out += ",\"buckets\":[";
      bool first = true;
      for (std::size_t i = 0; i < m.hist.counts.size(); ++i) {
        if (m.hist.counts[i] == 0) continue;
        if (!first) out.push_back(',');
        first = false;
        out += "[";
        append_u64(out, i);
        out.push_back(',');
        append_u64(out, m.hist.counts[i]);
        out += "]";
      }
      out += "]";
      break;
    }
  }
  out += "}\n";
}

std::string sanitize_prom(std::string_view name) {
  std::string out = "milback_";
  for (const char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    out.push_back(ok ? ch : '_');
  }
  return out;
}

}  // namespace

// milback-analyze: no-contract(exporter renders whatever the registry holds; formatting must not abort)
std::string metrics_jsonl(bool include_runtime) {
  const auto metrics = Registry::global().metric_snapshots();
  std::string out;
  for (const auto& m : metrics)
    if (m.cls == MetricClass::kSim) append_metric_jsonl(out, m);
  if (include_runtime)
    for (const auto& m : metrics)
      if (m.cls == MetricClass::kRuntime) append_metric_jsonl(out, m);
  return out;
}

// milback-analyze: no-contract(exporter renders whatever the registry holds; formatting must not abort)
std::string prometheus_text(bool include_runtime) {
  using Kind = Registry::MetricSnapshot::Kind;
  const auto metrics = Registry::global().metric_snapshots();
  std::string out;
  for (const auto& m : metrics) {
    if (m.cls == MetricClass::kRuntime && !include_runtime) continue;
    const std::string name = sanitize_prom(m.name);
    switch (m.kind) {
      case Kind::kCounter:
        out += "# TYPE " + name + " counter\n" + name + " ";
        append_u64(out, m.counter);
        out.push_back('\n');
        break;
      case Kind::kGauge:
        out += "# TYPE " + name + " gauge\n" + name + " ";
        append_double(out, m.gauge);
        out.push_back('\n');
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < m.hist.counts.size(); ++i) {
          cum += m.hist.counts[i];
          if (m.hist.counts[i] == 0 && i + 1 != m.hist.counts.size()) continue;
          out += name + "_bucket{le=\"";
          const double ub = bucket_upper_edge(m.hist.spec, i);
          if (i + 1 == m.hist.counts.size())
            out += "+Inf";
          else
            append_double(out, ub);
          out += "\"} ";
          append_u64(out, cum);
          out.push_back('\n');
        }
        out += name + "_count ";
        append_u64(out, m.hist.count);
        out.push_back('\n');
        break;
      }
    }
  }
  return out;
}

std::string chrome_trace_json() {
  const auto spans = Registry::global().trace_snapshots();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Name the known tracks so Perfetto shows subsystem rows, not bare pids.
  struct TrackName { std::uint32_t track; const char* label; };
  static constexpr TrackName kTracks[] = {
      {kLaneCell, "cell engine (sim s)"},
  };
  bool first = true;
  for (const auto& t : kTracks) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    append_u64(out, t.track);
    out += ",\"tid\":0,\"args\":{\"name\":";
    append_json_string(out, t.label);
    out += "}}";
  }
  for (const auto& s : spans) {
    const auto pid = static_cast<std::uint32_t>(s.lane >> 32);
    const auto tid = static_cast<std::uint32_t>(s.lane & 0xffffffffu);
    const double ts_us = s.t_begin * 1e6;
    const double dur_us = (s.t_end - s.t_begin) * 1e6;
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"X\",\"cat\":\"sim\",\"name\":";
    append_json_string(out, s.name);
    out += ",\"pid\":";
    append_u64(out, pid);
    out += ",\"tid\":";
    append_u64(out, tid);
    out += ",\"ts\":";
    append_double(out, ts_us);
    out += ",\"dur\":";
    append_double(out, dur_us < 0.0 ? 0.0 : dur_us);
    out += "}";
  }
  out += "]}\n";
  return out;
}

// milback-analyze: no-contract(best-effort IO; failure is reported via the return value, not an abort)
bool write_text_file(const std::string& path, const std::string& contents) {
  std::error_code ec;
  const std::filesystem::path p(path);
  if (p.has_parent_path())
    std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "milback_obs: cannot write %s\n", path.c_str());
    return false;
  }
  f.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  return f.good();
}

void write_env_exports() {
  if (const char* dir = std::getenv("MILBACK_METRICS_DIR"); dir && *dir) {
    const std::filesystem::path base(dir);
    write_text_file((base / "metrics.jsonl").string(),
                    metrics_jsonl(/*include_runtime=*/true));
    write_text_file((base / "metrics.prom").string(),
                    prometheus_text(/*include_runtime=*/true));
  }
  if (const char* dir = std::getenv("MILBACK_TRACE_DIR"); dir && *dir) {
    const std::filesystem::path base(dir);
    write_text_file((base / "trace.json").string(), chrome_trace_json());
  }
}

}  // namespace milback::obs
