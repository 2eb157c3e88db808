// Reporting helpers shared by the bench binaries: the tables and series
// each figure reproduction prints, plus a minimal flag parser.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness/count_workload.hpp"
#include "harness/histogram.hpp"

namespace megaphone {

/// Prints the latency timeline exactly as the paper's figures plot it:
/// time, max, p99, p50, p25 (milliseconds).
inline void PrintTimeline(const char* label, const Timeline& tl) {
  std::printf("# timeline %s\n", label);
  std::printf("%10s %12s %12s %12s %12s %10s\n", "time_s", "max_ms", "p99_ms",
              "p50_ms", "p25_ms", "samples");
  for (const auto& r : tl.Rows()) {
    std::printf("%10.2f %12.3f %12.3f %12.3f %12.3f %10llu\n", r.t_sec,
                r.max_ms, r.p99_ms, r.p50_ms, r.p25_ms,
                static_cast<unsigned long long>(r.samples));
  }
}

/// Prints a CCDF (Figs. 13-15): latency in ms vs fraction of records with
/// larger latency, downsampled to nonzero buckets.
inline void PrintCcdf(const char* label, const Histogram& h) {
  std::printf("# ccdf %s\n", label);
  std::printf("%14s %14s\n", "latency_ms", "ccdf");
  for (const auto& [ns, frac] : h.Ccdf()) {
    std::printf("%14.4f %14.6g\n", static_cast<double>(ns) * 1e-6, frac);
  }
}

/// One row of the paper's percentile tables (Figs. 13b/14b/15b).
inline void PrintPercentileRow(const std::string& name, const Histogram& h) {
  std::printf("%12s %10.2f %10.2f %10.2f %10.2f\n", name.c_str(),
              static_cast<double>(h.Quantile(0.90)) * 1e-6,
              static_cast<double>(h.Quantile(0.99)) * 1e-6,
              static_cast<double>(h.Quantile(0.9999)) * 1e-6,
              static_cast<double>(h.max()) * 1e-6);
}

inline void PrintPercentileHeader() {
  std::printf("%12s %10s %10s %10s %10s\n", "experiment", "90%", "99%",
              "99.99%", "max");
}

/// Summary of a migration for latency-vs-duration plots (Figs. 16-18).
inline void PrintMigrationSummary(const char* strategy, uint64_t param,
                                  const char* param_name,
                                  const std::vector<MigrationStats>& migs) {
  for (size_t i = 0; i < migs.size(); ++i) {
    std::printf("%12s %10llu %-10s mig=%zu duration_s=%10.3f max_latency_s=%10.4f batches=%zu\n",
                strategy, static_cast<unsigned long long>(param), param_name,
                i, migs[i].duration_sec(), migs[i].max_ms * 1e-3,
                migs[i].batches);
  }
}

/// The closing table of the migration figures: each variant's maximum
/// latency during migration.
inline void PrintMaxSummary(
    const std::vector<std::pair<const char*, double>>& max_ms) {
  std::printf("# summary (max latency during migration, ms)\n");
  for (const auto& [label, m] : max_ms) {
    std::printf("%-14s %12.3f\n", label, m);
  }
}

/// Minimal ordered JSON emitter for machine-readable bench reports
/// (BENCH_*.json). Supports nested objects/arrays with correct comma
/// placement; numbers are printed with enough precision to round-trip.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(const std::string& k) {
    Comma();
    AppendString(k);
    out_ += ": ";
    pending_value_ = true;
    return *this;
  }

  JsonWriter& Value(const std::string& v) {
    Comma();
    AppendString(v);
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string(v)); }
  JsonWriter& Value(double v) {
    Comma();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& Value(uint64_t v) {
    Comma();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out_ += buf;
    return *this;
  }
  JsonWriter& Value(int64_t v) {
    Comma();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out_ += buf;
    return *this;
  }
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(bool v) {
    Comma();
    out_ += v ? "true" : "false";
    return *this;
  }

  const std::string& Str() const { return out_; }

 private:
  void Comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;  // value directly follows its key
    }
    if (!first_) out_ += ", ";
    first_ = false;
  }
  JsonWriter& Open(char c) {
    Comma();
    out_ += c;
    first_ = true;
    return *this;
  }
  JsonWriter& Close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void AppendString(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
  bool pending_value_ = false;
};

/// Writes `j` to `path` with a trailing newline; on failure says so on
/// stderr and returns false.
inline bool WriteJsonFile(const std::string& path, const JsonWriter& j) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open --out=%s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "%s\n", j.Str().c_str());
  std::fclose(f);
  return true;
}

/// Minimal command-line flags: --key=value or --key value. Unknown keys
/// are ignored so every bench accepts the common set.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) continue;
      a = a.substr(2);
      auto eq = a.find('=');
      if (eq != std::string::npos) {
        kv_.emplace_back(a.substr(0, eq), a.substr(eq + 1));
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        kv_.emplace_back(a, argv[++i]);
      } else {
        kv_.emplace_back(a, "1");
      }
    }
  }

  double GetDouble(const std::string& key, double dflt) const {
    for (const auto& [k, v] : kv_) {
      if (k == key) return std::atof(v.c_str());
    }
    return dflt;
  }
  uint64_t GetInt(const std::string& key, uint64_t dflt) const {
    for (const auto& [k, v] : kv_) {
      if (k == key) return std::strtoull(v.c_str(), nullptr, 10);
    }
    return dflt;
  }
  bool GetBool(const std::string& key, bool dflt) const {
    for (const auto& [k, v] : kv_) {
      if (k == key) return v != "0" && v != "false";
    }
    return dflt;
  }
  std::string GetStr(const std::string& key, const std::string& dflt) const {
    for (const auto& [k, v] : kv_) {
      if (k == key) return v;
    }
    return dflt;
  }
  bool Has(const std::string& key) const {
    for (const auto& kv : kv_) {
      if (kv.first == key) return true;
    }
    return false;
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

}  // namespace megaphone
