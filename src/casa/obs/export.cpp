#include "casa/obs/export.hpp"

#include <charconv>
#include <cstdio>
#include <functional>
#include <ostream>
#include <sstream>
#include <utility>

#include "casa/obs/build_info.hpp"
#include "casa/obs/trace_names.hpp"
#include "casa/obs/tracer.hpp"
#include "casa/support/error.hpp"

namespace casa::obs {

namespace {

std::string fmt_double(double v) { return format_double(v); }

/// CSV field quoting, needed only for the free-form provenance values
/// (cxx_flags routinely contains commas); metric names and numbers never
/// need it.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_string(std::ostream& os, std::string_view s) {
  os << '"' << json_escape(s) << '"';
}

void write_summary(std::ostream& os, const DistSummary& d,
                   const char* sum_key) {
  os << "{\"count\": " << d.count << ", \"" << sum_key
     << "\": " << fmt_double(d.sum) << ", \"min\": " << fmt_double(d.min)
     << ", \"max\": " << fmt_double(d.max) << "}";
}

template <typename M, typename F>
void write_object(std::ostream& os, const M& map, const std::string& outer,
                  F&& write_value) {
  const std::string inner = outer + "  ";
  os << "{";
  bool first = true;
  for (const auto& [key, value] : map) {
    os << (first ? "\n" : ",\n") << inner;
    write_string(os, key);
    os << ": ";
    write_value(value);
    first = false;
  }
  if (!first) os << "\n" << outer;
  os << "}";
}

void write_snapshot_body(std::ostream& os, const MetricsSnapshot& snap,
                         const std::string& indent) {
  os << indent << "\"config\": ";
  write_object(os, snap.config, indent,
               [&os](const std::string& v) { write_string(os, v); });
  os << ",\n" << indent << "\"phases\": ";
  write_object(os, snap.spans, indent, [&os](const DistSummary& d) {
    write_summary(os, d, "seconds");
  });
  os << ",\n" << indent << "\"counters\": ";
  write_object(os, snap.counters, indent,
               [&os](std::uint64_t v) { os << v; });
  os << ",\n" << indent << "\"gauges\": ";
  write_object(os, snap.gauges, indent,
               [&os](double v) { os << fmt_double(v); });
  os << ",\n" << indent << "\"distributions\": ";
  write_object(os, snap.distributions, indent,
               [&os](const DistSummary& d) { write_summary(os, d, "sum"); });
}

}  // namespace

std::string format_double(double v) {
  // The first general-format precision that reads back as v (17 always
  // does for a finite v; a NaN never does and prints at 17). to_chars
  // prints what %.*g prints and from_chars parses exactly, without the
  // locale and format-string work of snprintf and sscanf.
  char buf[64];
  char* end = buf;
  for (int prec = 1; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        prec)
              .ptr;
    double back = 0.0;
    const std::from_chars_result r = std::from_chars(buf, end, back);
    if (r.ec == std::errc{} && back == v) break;
  }
  return std::string(buf, end);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
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
  return out;
}

void write_artifact_json(std::ostream& os, const MetricsSnapshot& snap,
                         const ArtifactOptions& opt) {
  const BuildInfo& build = build_info();
  os << "{\n";
  os << "  \"schema\": \"casa-metrics v1\",\n";
  os << "  \"run\": {\n";
  os << "    \"tool\": ";
  write_string(os, opt.tool);
  os << ",\n    \"git\": ";
  write_string(os, build.git_describe);
  os << ",\n    \"build_type\": ";
  write_string(os, build.build_type);
  os << ",\n    \"cxx_flags\": ";
  write_string(os, build.cxx_flags);
  os << ",\n    \"compiler\": ";
  write_string(os, build.compiler);
  os << "\n  },\n";
  write_snapshot_body(os, snap, "  ");
  if (opt.tasks != nullptr) {
    os << ",\n  \"tasks\": [";
    for (std::size_t i = 0; i < opt.tasks->size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    {\n";
      write_snapshot_body(os, (*opt.tasks)[i], "      ");
      os << "\n    }";
    }
    if (!opt.tasks->empty()) os << "\n  ";
    os << "]";
  }
  os << "\n}\n";
}

void write_artifact_csv(std::ostream& os, const MetricsSnapshot& snap,
                        const ArtifactOptions& opt) {
  const BuildInfo& build = build_info();
  os << "kind,name,value\n";
  os << "run,run.tool," << csv_field(opt.tool) << "\n";
  os << "run,run.git," << csv_field(build.git_describe) << "\n";
  os << "run,run.build_type," << csv_field(build.build_type) << "\n";
  os << "run,run.cxx_flags," << csv_field(build.cxx_flags) << "\n";
  os << "run,run.compiler," << csv_field(build.compiler) << "\n";
  for (const auto& [k, v] : snap.config) {
    os << "config," << k << "," << v << "\n";
  }
  const auto emit_summary = [&os](const char* kind, const std::string& name,
                                  const DistSummary& d) {
    os << kind << "," << name << ".count," << d.count << "\n";
    os << kind << "," << name << ".sum," << fmt_double(d.sum) << "\n";
    os << kind << "," << name << ".min," << fmt_double(d.min) << "\n";
    os << kind << "," << name << ".max," << fmt_double(d.max) << "\n";
  };
  for (const auto& [k, d] : snap.spans) emit_summary("phase", k, d);
  for (const auto& [k, v] : snap.counters) {
    os << "counter," << k << "," << v << "\n";
  }
  for (const auto& [k, v] : snap.gauges) {
    os << "gauge," << k << "," << fmt_double(v) << "\n";
  }
  for (const auto& [k, d] : snap.distributions) {
    emit_summary("distribution", k, d);
  }
}

ArtifactSinkPlan plan_artifact_sinks(const std::string& json_arg,
                                     bool stdout_flag) {
  ArtifactSinkPlan plan;
  if (json_arg == "-") {
    plan.to_stdout = true;
    if (stdout_flag) {
      plan.note =
          "--metrics-stdout is redundant with --metrics-json -; "
          "writing the artifact to stdout once";
    }
    return plan;
  }
  plan.to_stdout = stdout_flag;
  plan.file = json_arg;
  if (!plan.file.empty() && plan.to_stdout) {
    plan.note = "writing the metrics artifact to both " + plan.file +
                " and stdout";
  }
  return plan;
}

unsigned write_artifact_guarded(
    std::ostream& sink, std::string_view site,
    const std::function<void(std::ostream&)>& render,
    const fault::RetryPolicy& policy) {
  return fault::run_with_retry(
      policy,
      [&] {
        // Render before the fault site fires: every attempt re-renders, so
        // a caller whose render callback re-snapshots live state emits the
        // retries it survived into the retried artifact itself.
        std::ostringstream buf;
        render(buf);
        fault::at(site);
        std::string payload = std::move(buf).str();
        if (fault::armed()) {
          // Corrupt-and-detect: a kCorrupt clause mutates the payload in
          // flight; the checksum catches it before anything reaches the
          // sink, and the mismatch retries as a transient.
          const std::size_t digest = std::hash<std::string>{}(payload);
          fault::corrupt_payload(site, payload);
          if (std::hash<std::string>{}(payload) != digest) {
            throw fault::TransientError(
                "artifact payload failed integrity verification at " +
                std::string(site));
          }
        }
        sink.write(payload.data(),
                   static_cast<std::streamsize>(payload.size()));
        CASA_CHECK(sink.good(),
                   "artifact sink write failed at " + std::string(site));
      },
      [](unsigned attempt) {
        if (Tracer* tracer = Tracer::current()) {
          tracer->instant(trace_names::kRunnerRetry,
                          static_cast<double>(attempt),
                          trace_names::kCatFault);
        }
      });
}

}  // namespace casa::obs
