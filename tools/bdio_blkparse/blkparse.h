#ifndef BDIO_TOOLS_BDIO_BLKPARSE_BLKPARSE_H_
#define BDIO_TOOLS_BDIO_BLKPARSE_BLKPARSE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/blktrace.h"

namespace bdio::blkparse {

/// One device's slice of a parsed artifact: the header fields plus the
/// retained records, oldest first.
struct DeviceTrace {
  std::string name;
  std::string dev_class;  ///< "hdfs" or "mr".
  uint32_t node = 0;
  uint64_t dropped = 0;
  uint64_t counts[obs::kNumBlkActions] = {};  ///< Q,M,D,C totals.
  std::vector<obs::BlktraceRecord> records;
};

/// A parsed blktrace artifact (or an in-memory session's equivalent view).
struct BlktraceFile {
  std::vector<DeviceTrace> devices;
};

/// Parses the binary artifact format BlktraceSession::Serialize emits.
/// Fails with Corruption on a bad magic, truncated header, or record-size
/// mismatch (a future format revision).
Result<BlktraceFile> ParseBytes(const std::string& bytes);

/// Reads and parses an artifact file.
Result<BlktraceFile> ParseFile(const std::string& path);

/// Adapts a live session (bench/extension_io_signature analyzes in-process
/// without a file round trip). The view is equivalent to
/// ParseBytes(session.Serialize()).
BlktraceFile FromSession(const obs::BlktraceSession& session);

/// Percentile summary of one latency/size distribution. Latencies come
/// from a log-bucketed common::Histogram (±2% on percentiles); the
/// per-dispatch and per-queue samples (seek distance, inter-arrival, queue
/// depth) use exact stats::Percentiles.
struct DistSummary {
  uint64_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// Aggregates for one analysis scope (a device class, an IoTag, or a job).
struct ScopeSummary {
  uint64_t requests = 0;       ///< Completed requests (C records).
  uint64_t read_requests = 0;
  uint64_t bios = 0;           ///< Q + M records (pre-merge demand).
  uint64_t merged_bios = 0;    ///< M records.
  uint64_t sectors = 0;        ///< Sectors completed.
  uint64_t read_sectors = 0;

  /// Merge efficiency: merged bios / all bios (0 when no bios).
  double merge_ratio = 0;
  /// Completed-read fraction of requests.
  double read_fraction = 0;
  /// Mean request size in sectors — iostat's avgrq-sz, per-request.
  double avgrq_sectors = 0;
  double total_mb = 0;

  /// Dispatch-adjacency sequentiality: fraction of dispatches starting
  /// exactly where the previous dispatch on the same device ended
  /// (class scopes only; 0 elsewhere).
  double seq_score = 0;
  uint64_t dispatches = 0;
  uint64_t seq_dispatches = 0;

  DistSummary await_ms;    ///< Q -> C, iostat's await decomposed below.
  DistSummary wait_ms;     ///< Q -> D (elevator residency).
  DistSummary service_ms;  ///< D -> C (drive service, iostat's svctm).
  DistSummary seek_sectors;      ///< |dispatch start - previous end|.
  DistSummary interarrival_ms;   ///< Q-to-Q gap per device (class scopes).
  DistSummary queue_depth;       ///< Elevator depth sampled at dispatch.
};

/// The full characterization report.
struct Report {
  uint64_t num_devices = 0;
  uint64_t retained_records = 0;
  uint64_t dropped_records = 0;
  /// Q,M,D,C totals across every device (drop-independent).
  uint64_t action_totals[obs::kNumBlkActions] = {};

  /// Per device class ("hdfs" / "mr" — the paper's central split), per
  /// IoTag, and per owning job (key = job field; 0 = unattributed).
  std::map<std::string, ScopeSummary> classes;
  std::map<uint32_t, ScopeSummary> tags;
  std::map<uint32_t, ScopeSummary> jobs;
};

/// Replays every device's records and builds the report. Lifecycle joins
/// are per (device, request_id); records orphaned by ring overwrite (a D/C
/// whose Q was dropped) are skipped, never miscounted.
Report Analyze(const BlktraceFile& file);

/// Human-readable characterization report (the default CLI output).
std::string RenderText(const Report& report);

/// The per-workload I/O feature vector as JSON (--signature mode): per
/// class/tag/job request counts, merge ratio, read fraction, avgrq-sz,
/// sequentiality, await/wait/service percentiles, inter-arrival and
/// queue-depth summaries. Schema: docs/BLKTRACE.md.
std::string RenderSignatureJson(const Report& report);

}  // namespace bdio::blkparse

#endif  // BDIO_TOOLS_BDIO_BLKPARSE_BLKPARSE_H_
