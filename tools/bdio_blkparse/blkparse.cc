#include "bdio_blkparse/blkparse.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/histogram.h"
#include "common/io_tag.h"
#include "common/stats.h"
#include "common/units.h"

namespace bdio::blkparse {

namespace {

// ---------------------------------------------------------------------------
// Binary parsing (the inverse of BlktraceSession::Serialize).
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian cursor over the artifact bytes.
class Cursor {
 public:
  explicit Cursor(const std::string& bytes) : data_(bytes) {}

  bool Bytes(size_t n, std::string* out) {
    if (pos_ + n > data_.size()) return false;
    out->assign(data_, pos_, n);
    pos_ += n;
    return true;
  }
  bool U16(uint16_t* out) {
    uint64_t v = 0;
    if (!Uint(2, &v)) return false;
    *out = static_cast<uint16_t>(v);
    return true;
  }
  bool U32(uint32_t* out) {
    uint64_t v = 0;
    if (!Uint(4, &v)) return false;
    *out = static_cast<uint32_t>(v);
    return true;
  }
  bool U64(uint64_t* out) { return Uint(8, out); }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Uint(size_t n, uint64_t* out) {
    if (pos_ + n > data_.size()) return false;
    uint64_t v = 0;
    for (size_t i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += n;
    *out = v;
    return true;
  }

  const std::string& data_;
  size_t pos_ = 0;
};

Status Truncated() {
  return Status::Corruption("blktrace artifact truncated");
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Raw accumulators behind one ScopeSummary. Latency streams go into
/// log-bucketed histograms (common::Histogram — bounded memory at ~2%
/// percentile error); the per-dispatch and per-queue samples (seek
/// distance, inter-arrival, queue depth) stay exact vectors summarized by
/// stats::Percentiles, so an exactly-0 seek reads as exactly 0.
struct ScopeAccum {
  ScopeSummary sum;
  Histogram await_ms;
  Histogram wait_ms;
  Histogram service_ms;
  std::vector<double> seek_sectors;
  std::vector<double> interarrival_ms;
  std::vector<double> queue_depth;
};

double MsOf(uint64_t delta_ns) {
  return static_cast<double>(delta_ns) / 1e6;
}

DistSummary SummarizeHistogram(const Histogram& h) {
  DistSummary d;
  d.count = h.count();
  d.mean = h.mean();
  d.p50 = h.ValueAtPercentile(50);
  d.p95 = h.ValueAtPercentile(95);
  d.p99 = h.ValueAtPercentile(99);
  d.max = h.max();
  return d;
}

DistSummary SummarizeExact(const std::vector<double>& values) {
  DistSummary d;
  d.count = values.size();
  if (values.empty()) return d;
  RunningStats rs;
  for (double v : values) rs.Add(v);
  d.mean = rs.mean();
  d.max = rs.max();
  const std::vector<double> ps = Percentiles(values, {50, 95, 99});
  d.p50 = ps[0];
  d.p95 = ps[1];
  d.p99 = ps[2];
  return d;
}

void Finalize(ScopeAccum* a) {
  ScopeSummary& s = a->sum;
  s.merge_ratio =
      s.bios > 0 ? static_cast<double>(s.merged_bios) /
                       static_cast<double>(s.bios)
                 : 0.0;
  s.read_fraction =
      s.requests > 0 ? static_cast<double>(s.read_requests) /
                           static_cast<double>(s.requests)
                     : 0.0;
  s.avgrq_sectors =
      s.requests > 0 ? static_cast<double>(s.sectors) /
                           static_cast<double>(s.requests)
                     : 0.0;
  s.total_mb = static_cast<double>(s.sectors) * kSectorSize / (1024.0 * 1024);
  s.seq_score =
      s.dispatches > 0 ? static_cast<double>(s.seq_dispatches) /
                             static_cast<double>(s.dispatches)
                       : 0.0;
  s.await_ms = SummarizeHistogram(a->await_ms);
  s.wait_ms = SummarizeHistogram(a->wait_ms);
  s.service_ms = SummarizeHistogram(a->service_ms);
  s.seek_sectors = SummarizeExact(a->seek_sectors);
  s.interarrival_ms = SummarizeExact(a->interarrival_ms);
  s.queue_depth = SummarizeExact(a->queue_depth);
}

/// Open lifecycle state of one request between its Q and C records.
struct OpenRequest {
  uint64_t q_time = 0;
  uint64_t d_time = 0;
  bool dispatched = false;
};

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

void RenderDist(std::ostringstream* out, const char* label,
                const DistSummary& d, const char* unit) {
  *out << "    " << label << ": mean " << Fmt("%.3f", d.mean) << unit
       << "  p50 " << Fmt("%.3f", d.p50) << "  p95 " << Fmt("%.3f", d.p95)
       << "  p99 " << Fmt("%.3f", d.p99) << "  max " << Fmt("%.3f", d.max)
       << "  (n=" << d.count << ")\n";
}

void RenderScope(std::ostringstream* out, const ScopeSummary& s,
                 bool with_device_locals) {
  *out << "    requests: " << s.requests << " (" << Fmt("%.1f", 100 * s.read_fraction)
       << "% reads), bios: " << s.bios << ", merged: " << s.merged_bios
       << " (merge ratio " << Fmt("%.3f", s.merge_ratio) << ")\n";
  *out << "    volume: " << Fmt("%.1f", s.total_mb) << " MiB, avgrq-sz "
       << Fmt("%.1f", s.avgrq_sectors) << " sectors\n";
  RenderDist(out, "await  (Q->C)", s.await_ms, " ms");
  RenderDist(out, "wait   (Q->D)", s.wait_ms, " ms");
  RenderDist(out, "service(D->C)", s.service_ms, " ms");
  if (with_device_locals) {
    *out << "    sequentiality: " << Fmt("%.3f", s.seq_score) << " ("
         << s.seq_dispatches << "/" << s.dispatches
         << " dispatch-adjacent)\n";
    RenderDist(out, "seek distance", s.seek_sectors, " sectors");
    RenderDist(out, "inter-arrival", s.interarrival_ms, " ms");
    RenderDist(out, "queue depth  ", s.queue_depth, "");
  }
}

void JsonDist(std::ostringstream* out, const char* key,
              const DistSummary& d) {
  *out << "\"" << key << "\":{\"count\":" << d.count << ",\"mean\":"
       << Fmt("%.6g", d.mean) << ",\"p50\":" << Fmt("%.6g", d.p50)
       << ",\"p95\":" << Fmt("%.6g", d.p95) << ",\"p99\":"
       << Fmt("%.6g", d.p99) << ",\"max\":" << Fmt("%.6g", d.max) << "}";
}

void JsonScope(std::ostringstream* out, const ScopeSummary& s) {
  *out << "{\"requests\":" << s.requests << ",\"bios\":" << s.bios
       << ",\"merged_bios\":" << s.merged_bios << ",\"merge_ratio\":"
       << Fmt("%.6g", s.merge_ratio) << ",\"read_fraction\":"
       << Fmt("%.6g", s.read_fraction) << ",\"avgrq_sectors\":"
       << Fmt("%.6g", s.avgrq_sectors) << ",\"total_mb\":"
       << Fmt("%.6g", s.total_mb) << ",\"seq_score\":"
       << Fmt("%.6g", s.seq_score) << ",";
  JsonDist(out, "await_ms", s.await_ms);
  *out << ",";
  JsonDist(out, "wait_ms", s.wait_ms);
  *out << ",";
  JsonDist(out, "service_ms", s.service_ms);
  *out << ",";
  JsonDist(out, "seek_sectors", s.seek_sectors);
  *out << ",";
  JsonDist(out, "interarrival_ms", s.interarrival_ms);
  *out << ",";
  JsonDist(out, "queue_depth", s.queue_depth);
  *out << "}";
}

const char* TagName(uint32_t tag) {
  return tag < kNumIoTags ? IoTagName(static_cast<IoTag>(tag)) : "?";
}

}  // namespace

Result<BlktraceFile> ParseBytes(const std::string& bytes) {
  Cursor cur(bytes);
  std::string magic;
  if (!cur.Bytes(8, &magic)) return Truncated();
  if (magic != "BDIOBLK1") {
    return Status::Corruption("not a bdio blktrace artifact (bad magic)");
  }
  uint32_t record_size = 0;
  uint32_t device_count = 0;
  if (!cur.U32(&record_size) || !cur.U32(&device_count)) return Truncated();
  if (record_size != sizeof(obs::BlktraceRecord)) {
    return Status::Corruption("unsupported blktrace record size " +
                              std::to_string(record_size));
  }
  BlktraceFile file;
  std::vector<uint64_t> record_counts;
  for (uint32_t i = 0; i < device_count; ++i) {
    DeviceTrace dev;
    uint16_t len = 0;
    if (!cur.U16(&len) || !cur.Bytes(len, &dev.name)) return Truncated();
    if (!cur.U16(&len) || !cur.Bytes(len, &dev.dev_class)) return Truncated();
    if (!cur.U32(&dev.node) || !cur.U64(&dev.dropped)) return Truncated();
    for (uint64_t& c : dev.counts) {
      if (!cur.U64(&c)) return Truncated();
    }
    uint64_t n_records = 0;
    if (!cur.U64(&n_records)) return Truncated();
    record_counts.push_back(n_records);
    file.devices.push_back(std::move(dev));
  }
  for (uint32_t i = 0; i < device_count; ++i) {
    DeviceTrace& dev = file.devices[i];
    dev.records.reserve(record_counts[i]);
    for (uint64_t r = 0; r < record_counts[i]; ++r) {
      obs::BlktraceRecord rec;
      std::string action_dir;
      if (!cur.U64(&rec.time_ns) || !cur.U64(&rec.sector) ||
          !cur.U32(&rec.sectors) || !cur.U32(&rec.queue_depth) ||
          !cur.U32(&rec.request_id) || !cur.U32(&rec.tag) ||
          !cur.U32(&rec.job) || !cur.U16(&rec.device) ||
          !cur.Bytes(2, &action_dir)) {
        return Truncated();
      }
      rec.action = static_cast<uint8_t>(action_dir[0]);
      rec.dir = static_cast<uint8_t>(action_dir[1]);
      dev.records.push_back(rec);
    }
  }
  if (!cur.AtEnd()) {
    return Status::Corruption("trailing bytes after blktrace records");
  }
  return file;
}

Result<BlktraceFile> ParseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Status::IOError("cannot open blktrace artifact: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseBytes(buf.str());
}

BlktraceFile FromSession(const obs::BlktraceSession& session) {
  BlktraceFile file;
  for (size_t i = 0; i < session.num_devices(); ++i) {
    const obs::BlktraceDevice& d = session.device(i);
    DeviceTrace dev;
    dev.name = d.name;
    dev.dev_class = d.dev_class;
    dev.node = d.node;
    dev.dropped = d.dropped;
    for (uint32_t a = 0; a < obs::kNumBlkActions; ++a) {
      dev.counts[a] = d.counts[a];
    }
    dev.records = session.DeviceRecords(static_cast<uint16_t>(i));
    file.devices.push_back(std::move(dev));
  }
  return file;
}

Report Analyze(const BlktraceFile& file) {
  Report report;
  report.num_devices = file.devices.size();
  std::map<std::string, ScopeAccum> classes;
  std::map<uint32_t, ScopeAccum> tags;
  std::map<uint32_t, ScopeAccum> jobs;

  for (const DeviceTrace& dev : file.devices) {
    report.dropped_records += dev.dropped;
    report.retained_records += dev.records.size();
    for (uint32_t a = 0; a < obs::kNumBlkActions; ++a) {
      report.action_totals[a] += dev.counts[a];
    }
    ScopeAccum& cls = classes[dev.dev_class];

    // Device-local lifecycle replay. Joins are per request id; orphans
    // (D/C records whose Q was overwritten in the ring) are skipped.
    std::map<uint32_t, OpenRequest> open;
    uint64_t last_dispatch_end = 0;
    bool have_dispatch = false;
    uint64_t last_q_time = 0;
    bool have_q = false;
    for (const obs::BlktraceRecord& rec : dev.records) {
      ScopeAccum& tag = tags[rec.tag];
      ScopeAccum& job = jobs[rec.job];
      switch (static_cast<obs::BlkAction>(rec.action)) {
        case obs::BlkAction::kQueue: {
          open[rec.request_id] = OpenRequest{rec.time_ns, 0, false};
          ++cls.sum.bios;
          ++tag.sum.bios;
          ++job.sum.bios;
          if (have_q) {
            cls.interarrival_ms.push_back(MsOf(rec.time_ns - last_q_time));
          }
          last_q_time = rec.time_ns;
          have_q = true;
          break;
        }
        case obs::BlkAction::kMerge: {
          ++cls.sum.bios;
          ++cls.sum.merged_bios;
          ++tag.sum.bios;
          ++tag.sum.merged_bios;
          ++job.sum.bios;
          ++job.sum.merged_bios;
          break;
        }
        case obs::BlkAction::kDispatch: {
          auto it = open.find(rec.request_id);
          if (it != open.end()) {
            it->second.d_time = rec.time_ns;
            it->second.dispatched = true;
            const double wait = MsOf(rec.time_ns - it->second.q_time);
            cls.wait_ms.Add(wait);
            tag.wait_ms.Add(wait);
            job.wait_ms.Add(wait);
          }
          ++cls.sum.dispatches;
          if (have_dispatch) {
            const uint64_t seek = rec.sector > last_dispatch_end
                                      ? rec.sector - last_dispatch_end
                                      : last_dispatch_end - rec.sector;
            cls.seek_sectors.push_back(static_cast<double>(seek));
            if (seek == 0) ++cls.sum.seq_dispatches;
          }
          last_dispatch_end = rec.sector + rec.sectors;
          have_dispatch = true;
          cls.queue_depth.push_back(static_cast<double>(rec.queue_depth));
          break;
        }
        case obs::BlkAction::kComplete: {
          ++cls.sum.requests;
          ++tag.sum.requests;
          ++job.sum.requests;
          cls.sum.sectors += rec.sectors;
          tag.sum.sectors += rec.sectors;
          job.sum.sectors += rec.sectors;
          if (rec.dir == 0) {
            ++cls.sum.read_requests;
            ++tag.sum.read_requests;
            ++job.sum.read_requests;
            cls.sum.read_sectors += rec.sectors;
            tag.sum.read_sectors += rec.sectors;
            job.sum.read_sectors += rec.sectors;
          }
          auto it = open.find(rec.request_id);
          if (it != open.end()) {
            const double await = MsOf(rec.time_ns - it->second.q_time);
            cls.await_ms.Add(await);
            tag.await_ms.Add(await);
            job.await_ms.Add(await);
            if (it->second.dispatched) {
              const double svc = MsOf(rec.time_ns - it->second.d_time);
              cls.service_ms.Add(svc);
              tag.service_ms.Add(svc);
              job.service_ms.Add(svc);
            }
            open.erase(it);
          }
          break;
        }
        default:
          break;  // unknown action from a future format: ignore
      }
    }
  }

  for (auto& [name, accum] : classes) {
    Finalize(&accum);
    report.classes.emplace(name, accum.sum);
  }
  for (auto& [tag, accum] : tags) {
    Finalize(&accum);
    report.tags.emplace(tag, accum.sum);
  }
  for (auto& [job, accum] : jobs) {
    Finalize(&accum);
    report.jobs.emplace(job, accum.sum);
  }
  return report;
}

std::string RenderText(const Report& report) {
  std::ostringstream out;
  out << "bdio-blkparse: " << report.num_devices << " devices, "
      << report.retained_records << " records retained, "
      << report.dropped_records << " dropped\n";
  out << "  lifecycle totals: Q=" << report.action_totals[0] << " M="
      << report.action_totals[1] << " D=" << report.action_totals[2]
      << " C=" << report.action_totals[3] << "\n";
  for (const auto& [name, scope] : report.classes) {
    out << "\ndevice class " << name << ":\n";
    RenderScope(&out, scope, /*with_device_locals=*/true);
  }
  for (const auto& [tag, scope] : report.tags) {
    out << "\nio tag " << TagName(tag) << ":\n";
    RenderScope(&out, scope, /*with_device_locals=*/false);
  }
  for (const auto& [job, scope] : report.jobs) {
    if (job == 0) {
      out << "\njob (unattributed):\n";
    } else {
      out << "\njob " << (job - 1) << ":\n";
    }
    RenderScope(&out, scope, /*with_device_locals=*/false);
  }
  return out.str();
}

std::string RenderSignatureJson(const Report& report) {
  std::ostringstream out;
  out << "{\"schema\":1,\"devices\":" << report.num_devices
      << ",\"retained_records\":" << report.retained_records
      << ",\"dropped_records\":" << report.dropped_records
      << ",\"actions\":{\"Q\":" << report.action_totals[0] << ",\"M\":"
      << report.action_totals[1] << ",\"D\":" << report.action_totals[2]
      << ",\"C\":" << report.action_totals[3] << "},\"classes\":{";
  bool first = true;
  for (const auto& [name, scope] : report.classes) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":";
    JsonScope(&out, scope);
  }
  out << "},\"tags\":{";
  first = true;
  for (const auto& [tag, scope] : report.tags) {
    if (!first) out << ",";
    first = false;
    out << "\"" << TagName(tag) << "\":";
    JsonScope(&out, scope);
  }
  out << "},\"jobs\":{";
  first = true;
  for (const auto& [job, scope] : report.jobs) {
    if (!first) out << ",";
    first = false;
    if (job == 0) {
      out << "\"unattributed\":";
    } else {
      out << "\"" << (job - 1) << "\":";
    }
    JsonScope(&out, scope);
  }
  out << "}}\n";
  return out.str();
}

}  // namespace bdio::blkparse
