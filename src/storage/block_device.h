#ifndef BDIO_STORAGE_BLOCK_DEVICE_H_
#define BDIO_STORAGE_BLOCK_DEVICE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/inline_fn.h"
#include "common/random.h"
#include "common/units.h"
#include "obs/blktrace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "storage/disk_model.h"
#include "storage/disk_parameters.h"
#include "storage/disk_stats.h"
#include "storage/io_request.h"
#include "storage/io_scheduler.h"

namespace bdio::storage {

/// A simulated block device: elevator + rotational service model +
/// /proc/diskstats accounting. Bios submitted here may be merged by the
/// elevator; the device services one request at a time (head-limited), which
/// is what gives iostat's svctm/%util their meaning.
class BlockDevice {
 public:
  /// `scheduler_name` is "deadline" (default for the paper's testbed) or
  /// "noop".
  BlockDevice(sim::Simulator* sim, std::string name,
              const DiskParameters& params, Rng rng,
              const std::string& scheduler_name = "deadline");

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  /// Submits a bio. `sectors` must be in (0, max_request_sectors];
  /// `on_complete` fires when the (possibly merged) request finishes.
  /// `io_context` identifies the issuing stream for fairness-aware
  /// elevators (0 = anonymous). `tag`/`job` attribute the bio to its
  /// high-level source (an IoTag value and owning job id + 1) for blktrace
  /// records; both default to 0 = unattributed. The request is drawn from
  /// this device's pool and recycled after completion — callbacks must not
  /// retain it.
  void Submit(IoType type, Sectors sector, Sectors sectors,
              InlineFn on_complete, uint64_t io_context = 0,
              uint32_t tag = 0, uint32_t job = 0);

  /// Counter snapshot as of the current simulated time.
  DiskStatsSnapshot Stats() const { return stats_.Snapshot(sim_->Now()); }

  /// Degrades (factor > 1) or restores (factor == 1) the drive's service
  /// time — the fault-injection model of a failing spindle. Requests
  /// already accepted by the drive are unaffected; everything dispatched
  /// after the call pays the new factor.
  void SetServiceFactor(double factor) { model_.set_service_factor(factor); }
  double service_factor() const { return model_.service_factor(); }

  /// Attaches observability sinks (either may be null). `trace_pid` is the
  /// trace-viewer process row of this device's node; `device_class` labels
  /// metrics ("hdfs" or "mr"). Queue residency and disk service become
  /// spans linked to the submitter's current flow; queue depth, request
  /// size, await, merges, and bytes feed the registry.
  void AttachObs(obs::TraceSession* trace, obs::MetricsRegistry* metrics,
                 uint32_t trace_pid, const std::string& device_class);

  /// Attaches a block-layer lifecycle tracer: every bio queue (Q), elevator
  /// merge (M), dispatch (D), and completion (C) on this device emits one
  /// record to `session` under this device's registered index. Recording
  /// is passive — it never schedules events or perturbs the run.
  void AttachBlktrace(obs::BlktraceSession* session, uint16_t device_index);

  const std::string& name() const { return name_; }
  const DiskParameters& params() const { return params_; }
  size_t queued() const { return scheduler_->size(); }
  bool busy() const { return busy_; }

  /// Cross-checks the /proc/diskstats accounting (bdio::invariants):
  /// in_flight vs a recount of elevator + NCQ + in-service requests,
  /// io_ticks <= elapsed time (utilization <= 1), busy-time vs queue-time
  /// ordering, and — when a blktrace session is attached — DiskStats
  /// merge/request/completion counters vs the session's M/Q/C record
  /// totals. Returns "" when every invariant holds.
  std::string AuditInvariants() const;

 private:
  void MaybeDispatch();
  void Complete(IoRequest* req);
  /// Index into ncq_pool_ of the request the head can reach fastest.
  size_t PickSptf() const;

  sim::Simulator* sim_;
  std::string name_;
  DiskParameters params_;
  DiskModel model_;
  std::unique_ptr<IoScheduler> scheduler_;
  DiskStats stats_;
  uint64_t next_id_ = 1;
  bool busy_ = false;
  /// Backing storage for every in-flight request on this device.
  IoRequestPool pool_;
  /// Requests accepted by the drive awaiting SPTF selection (NCQ).
  std::vector<IoRequest*> ncq_pool_;

  // Observability sinks; null (the default) keeps the hot path at a single
  // pointer test per event.
  obs::BlktraceSession* blktrace_ = nullptr;
  uint16_t blktrace_dev_ = 0;
  obs::TraceSession* trace_ = nullptr;
  uint32_t trace_pid_ = 0;
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_merges_ = nullptr;
  obs::Counter* m_read_bytes_ = nullptr;
  obs::Counter* m_write_bytes_ = nullptr;
  obs::Histogram* m_queue_depth_ = nullptr;
  obs::Histogram* m_request_sectors_ = nullptr;
  obs::Histogram* m_await_ms_ = nullptr;
};

}  // namespace bdio::storage

#endif  // BDIO_STORAGE_BLOCK_DEVICE_H_
