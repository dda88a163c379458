#include "obs/manifest.h"

#include "obs/atomic_io.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace infuserki::obs {

Lineage& Lineage::Get() {
  // Locking contract: magic-static first touch; all post-init access to
  // `events_` (Record/Snapshot/Clear) holds `mu_`, and Snapshot returns a
  // copy so callers never hold a reference into the guarded vector.
  static Lineage* lineage = new Lineage();
  return *lineage;
}

void Lineage::Record(std::string event) {
  util::MutexLock lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<std::string> Lineage::Snapshot() const {
  util::MutexLock lock(mu_);
  return events_;
}

void Lineage::Clear() {
  util::MutexLock lock(mu_);
  events_.clear();
}

RunManifest::RunManifest(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void RunManifest::AddConfig(const std::string& key,
                            const std::string& value) {
  config_.emplace_back(key, JsonQuote(value));
}

void RunManifest::AddConfig(const std::string& key, int64_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void RunManifest::AddConfig(const std::string& key, double value) {
  config_.emplace_back(key, JsonNumber(value));
}

std::string RunManifest::ToJson() const {
  JsonWriter config;
  for (const auto& [key, value] : config_) {
    config.AddRaw(key, value);
  }
  JsonWriter spans;
  for (const auto& [name, rollup] : Tracer::Get().Rollup()) {
    JsonWriter span;
    span.AddUint("count", rollup.count)
        .AddNumber("total_seconds",
                   static_cast<double>(rollup.total_us) * 1e-6);
    spans.AddRaw(name, span.Finish());
  }
  std::string lineage = "[";
  for (const std::string& event : Lineage::Get().Snapshot()) {
    if (lineage.size() > 1) lineage += ",";
    lineage += JsonQuote(event);
  }
  lineage += "]";
  JsonWriter out;
  out.AddString("bench", bench_name_)
      .AddRaw("config", config.Finish())
      .AddRaw("metrics", Registry::Get().JsonDump())
      .AddRaw("spans", spans.Finish())
      .AddUint("spans_dropped", Tracer::Get().dropped())
      .AddRaw("lineage", lineage);
  return out.Finish();
}

bool RunManifest::Write(const std::string& path) const {
  return WriteFileAtomically(path, ToJson() + "\n");
}

}  // namespace infuserki::obs
