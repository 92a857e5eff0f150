#include "check/invariants.h"

#include <cstdlib>

#include "common/io_tag.h"
#include "common/logging.h"

namespace bdio::invariants {

InvariantChecker::InvariantChecker(sim::Simulator* sim, CheckerConfig config)
    : sim_(sim), config_(config), last_now_(sim->Now()) {
  BDIO_CHECK(sim != nullptr);
  BDIO_CHECK(config_.audit_interval > 0);
  sim_->SetPostEventHook([this] { OnEvent(); });
}

InvariantChecker::~InvariantChecker() {
  // Final audit: catch violations the interval never sampled.
  if (last_violation_.empty()) {
    const std::string v = RunAudit();
    if (!v.empty()) Report(v);
  }
  sim_->SetPostEventHook(nullptr);
}

bool InvariantChecker::EnabledFromEnv() {
  const char* env = std::getenv("BDIO_CHECK_INVARIANTS");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}

void InvariantChecker::OnEvent() {
  ++events_checked_;
  const SimTime now = sim_->Now();
  if (now < last_now_) {
    Report("sim: clock moved backwards: " + std::to_string(now.ns()) + " after " +
           std::to_string(last_now_.ns()));
  }
  last_now_ = now;
  if (events_checked_ % config_.audit_interval == 0) CheckNow();
}

void InvariantChecker::CheckNow() {
  ++audits_run_;
  const std::string v = RunAudit();
  if (!v.empty()) Report(v);
}

void InvariantChecker::Report(const std::string& violation) {
  if (config_.fatal) {
    BDIO_CHECK(false) << "invariant violated at t=" << sim_->Now()
                      << " (event " << events_checked_ << "): " << violation;
  }
  if (last_violation_.empty()) last_violation_ = violation;
}

std::string InvariantChecker::RunAudit() const {
  if (cluster_ != nullptr) {
    for (uint32_t i = 0; i < cluster_->num_workers(); ++i) {
      cluster::Node* node = cluster_->node(i);
      std::string v = node->cache()->AuditInvariants();
      if (!v.empty()) return "node " + std::to_string(i) + ": " + v;
      for (uint32_t d = 0; d < node->num_hdfs_disks(); ++d) {
        v = node->hdfs_disk(d)->AuditInvariants();
        if (!v.empty()) return "node " + std::to_string(i) + ": " + v;
      }
      for (uint32_t d = 0; d < node->num_mr_disks(); ++d) {
        v = node->mr_disk(d)->AuditInvariants();
        if (!v.empty()) return "node " + std::to_string(i) + ": " + v;
      }
    }
  }
  if (hdfs_ != nullptr) {
    std::string v = hdfs_->AuditInvariants();
    if (!v.empty()) return v;
  }
  if (engine_ != nullptr) {
    std::string v = engine_->AuditInvariants();
    if (!v.empty()) return v;
  }
  for (const dag::JobDag* jobdag : dags_) {
    std::string v = jobdag->AuditInvariants();
    if (!v.empty()) return v;
  }
  if (metrics_ != nullptr) {
    // Per-IoTag attribution completeness: the page cache bumps the tagged
    // and untagged counters together, so the tagged family must sum to the
    // total — every physical byte is attributed to exactly one source.
    uint64_t tag_read = 0;
    uint64_t tag_write = 0;
    for (uint32_t t = 0; t < kNumIoTags; ++t) {
      const obs::Labels labels{{"source", IoTagName(static_cast<IoTag>(t))}};
      tag_read +=
          metrics_->CounterValue("pagecache.tag_disk_read_bytes", labels);
      tag_write +=
          metrics_->CounterValue("pagecache.tag_disk_write_bytes", labels);
    }
    const uint64_t total_read =
        metrics_->CounterValue("pagecache.disk_read_bytes");
    const uint64_t total_write =
        metrics_->CounterValue("pagecache.writeback_bytes");
    if (tag_read != total_read) {
      return "metrics: tagged pagecache reads sum to " +
             std::to_string(tag_read) + " but disk_read_bytes=" +
             std::to_string(total_read);
    }
    if (tag_write != total_write) {
      return "metrics: tagged pagecache writes sum to " +
             std::to_string(tag_write) + " but writeback_bytes=" +
             std::to_string(total_write);
    }
  }
  return {};
}

std::unique_ptr<InvariantChecker> MaybeAttachFromEnv(
    sim::Simulator* sim, cluster::Cluster* cluster, hdfs::Hdfs* hdfs,
    mapreduce::MrEngine* engine, obs::MetricsRegistry* metrics) {
  if (!InvariantChecker::EnabledFromEnv()) return nullptr;
  auto checker = std::make_unique<InvariantChecker>(sim);
  if (cluster != nullptr) checker->WatchCluster(cluster);
  if (hdfs != nullptr) checker->WatchHdfs(hdfs);
  if (engine != nullptr) checker->WatchEngine(engine);
  if (metrics != nullptr) checker->WatchMetrics(metrics);
  return checker;
}

}  // namespace bdio::invariants
