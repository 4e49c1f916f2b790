#include "obs/export.h"

#include <cinttypes>
#include <cstdio>

namespace latgossip {

#ifndef LATGOSSIP_GIT_HASH
#define LATGOSSIP_GIT_HASH "unknown"
#endif
#ifndef LATGOSSIP_COMPILER
#define LATGOSSIP_COMPILER "unknown"
#endif
#ifndef LATGOSSIP_BUILD_TYPE
#define LATGOSSIP_BUILD_TYPE "unknown"
#endif
#ifndef LATGOSSIP_BUILD_FLAGS
#define LATGOSSIP_BUILD_FLAGS ""
#endif

BuildInfo build_info() {
  return BuildInfo{LATGOSSIP_GIT_HASH, LATGOSSIP_COMPILER,
                   LATGOSSIP_BUILD_TYPE, LATGOSSIP_BUILD_FLAGS};
}

std::size_t peak_rss_bytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  std::size_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib * 1024;
}

void json_append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  json_append_escaped(out, s);
  return out;
}

std::string build_info_json() {
  const BuildInfo b = build_info();
  std::string out = "{\"git\":\"";
  json_append_escaped(out, b.git_hash);
  out += "\",\"compiler\":\"";
  json_append_escaped(out, b.compiler);
  out += "\",\"build_type\":\"";
  json_append_escaped(out, b.build_type);
  out += "\",\"flags\":\"";
  json_append_escaped(out, b.flags);
  out += "\"}";
  return out;
}

namespace {

void json_append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

}  // namespace

void json_append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void json_append_fixed(std::string& out, double v, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  out += buf;
}

void json_append_fingerprint(std::string& out, std::uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"0x%016" PRIx64 "\"", fingerprint);
  out += buf;
}

void json_append_sim_result(std::string& out, const SimResult& result) {
  out += "{\"rounds\":";
  json_append_i64(out, result.rounds);
  out += ",\"completed\":";
  out += result.completed ? "true" : "false";
  out += ",\"activations\":";
  json_append_u64(out, result.activations);
  out += ",\"messages_delivered\":";
  json_append_u64(out, result.messages_delivered);
  out += ",\"messages_dropped\":";
  json_append_u64(out, result.messages_dropped);
  out += ",\"exchanges_rejected\":";
  json_append_u64(out, result.exchanges_rejected);
  out += ",\"payload_bits\":";
  json_append_u64(out, result.payload_bits);
  out += ",\"max_inflight\":";
  json_append_u64(out, result.max_inflight);
  out += ",\"fingerprint\":";
  json_append_fingerprint(out, result.fingerprint);
  out += '}';
}

std::string to_chrome_trace_json(const EventRecorder& rec) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };
  for (const Event& e : rec.events()) {
    switch (e.kind()) {
      case EventKind::kActivation:
        sep();
        out += "{\"name\":\"activate\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
               "\"tid\":";
        json_append_u64(out, e.a());
        out += ",\"ts\":";
        json_append_i64(out, e.round());
        out += ",\"args\":{\"peer\":";
        json_append_u64(out, e.b());
        out += ",\"edge\":";
        json_append_u64(out, e.edge());
        out += "}}";
        break;
      case EventKind::kDelivery:
      case EventKind::kDrop:
      case EventKind::kCrashDrop: {
        sep();
        const char* name = e.kind() == EventKind::kDelivery ? "deliver"
                           : e.kind() == EventKind::kDrop   ? "drop"
                                                          : "crash_drop";
        out += "{\"name\":\"";
        out += name;
        out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
        json_append_u64(out, e.a());
        out += ",\"ts\":";
        json_append_i64(out, e.start());
        out += ",\"dur\":";
        json_append_i64(out, e.round() - e.start());
        out += ",\"args\":{\"from\":";
        json_append_u64(out, e.b());
        out += ",\"edge\":";
        json_append_u64(out, e.edge());
        out += "}}";
        break;
      }
      case EventKind::kPhaseBegin:
      case EventKind::kPhaseEnd:
        sep();
        out += "{\"name\":\"";
        json_append_escaped(out, rec.phase_name(e.a()));
        out += e.kind() == EventKind::kPhaseBegin ? "\",\"ph\":\"B\""
                                                : "\",\"ph\":\"E\"";
        out += ",\"pid\":0,\"tid\":0,\"ts\":";
        json_append_i64(out, e.round());
        out += '}';
        break;
    }
  }
  // Name the process/track rows so Perfetto renders something readable.
  sep();
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
         "\"args\":{\"name\":\"phases\"}}";
  out += ",{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"nodes\"}}";
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string activations_to_csv(const EventRecorder& rec) {
  std::string out = "round,initiator,responder,edge\n";
  for (const Event& e : rec.events()) {
    if (e.kind() != EventKind::kActivation) continue;
    out += std::to_string(e.round());
    out += ',';
    out += std::to_string(e.a());
    out += ',';
    out += std::to_string(e.b());
    out += ',';
    out += std::to_string(e.edge());
    out += '\n';
  }
  return out;
}

std::string metrics_json(const MetricsRegistry& metrics) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : metrics.counters()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json_append_escaped(out, name);
    out += "\":";
    json_append_u64(out, c.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : metrics.histograms()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json_append_escaped(out, name);
    out += "\":{\"count\":";
    json_append_u64(out, h.count());
    out += ",\"sum\":";
    json_append_u64(out, h.sum());
    out += ",\"max\":";
    json_append_u64(out, h.max());
    out += ",\"buckets\":{";
    bool bfirst = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.bucket(b) == 0) continue;
      if (!bfirst) out += ',';
      bfirst = false;
      out += '"';
      json_append_u64(out, Histogram::bucket_lo(b));
      out += "\":";
      json_append_u64(out, h.bucket(b));
    }
    out += "}}";
  }
  out += "},\"phases\":{";
  first = true;
  for (const auto& [name, p] : metrics.phases()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json_append_escaped(out, name);
    out += "\":{\"rounds\":";
    json_append_i64(out, p.rounds);
    out += ",\"activations\":";
    json_append_u64(out, p.activations);
    out += ",\"messages_delivered\":";
    json_append_u64(out, p.messages_delivered);
    out += ",\"messages_dropped\":";
    json_append_u64(out, p.messages_dropped);
    out += ",\"exchanges_rejected\":";
    json_append_u64(out, p.exchanges_rejected);
    out += ",\"payload_bits\":";
    json_append_u64(out, p.payload_bits);
    out += ",\"entries\":";
    json_append_u64(out, p.entries);
    out += '}';
  }
  out += "}}";
  return out;
}

std::string manifest_record(const RunInfo& info, std::size_t trial,
                            std::uint64_t trial_seed, const SimResult& result,
                            double wall_ms,
                            const std::string& metrics_json_snapshot) {
  std::string out = "{\"schema\":\"latgossip.run.v1\",\"build\":";
  out += build_info_json();
  out += ",\"tool\":\"";
  json_append_escaped(out, info.tool);
  out += "\",\"protocol\":\"";
  json_append_escaped(out, info.protocol);
  out += "\",\"graph\":{\"source\":\"";
  json_append_escaped(out, info.graph_source);
  out += "\",\"params\":\"";
  json_append_escaped(out, info.graph_params);
  out += "\",\"nodes\":";
  json_append_u64(out, info.nodes);
  out += ",\"edges\":";
  json_append_u64(out, info.edges);
  out += "},\"seed\":";
  json_append_u64(out, info.seed);
  out += ",\"threads\":";
  json_append_u64(out, info.threads);
  out += ",\"threads_effective\":";
  json_append_u64(out, info.threads_effective);
  if (!info.threads_env.empty()) {
    out += ",\"threads_env\":\"";
    json_append_escaped(out, info.threads_env);
    out += '"';
  }
  out += ",\"trial\":";
  json_append_u64(out, trial);
  out += ",\"trial_seed\":";
  json_append_u64(out, trial_seed);
  out += ",\"result\":";
  json_append_sim_result(out, result);
  out += ",\"wall_ms\":";
  json_append_fixed(out, wall_ms, 3);
  out += ",\"peak_rss_bytes\":";
  json_append_u64(out, peak_rss_bytes());
  if (!metrics_json_snapshot.empty()) {
    out += ",\"metrics\":";
    out += metrics_json_snapshot;
  }
  out += '}';
  return out;
}

}  // namespace latgossip
