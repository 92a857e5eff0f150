#include "storage/block_device.h"

#include "common/logging.h"

namespace bdio::storage {

BlockDevice::BlockDevice(sim::Simulator* sim, std::string name,
                         const DiskParameters& params, Rng rng,
                         const std::string& scheduler_name)
    : sim_(sim),
      name_(std::move(name)),
      params_(params),
      model_(params, rng),
      scheduler_(MakeScheduler(scheduler_name, params.max_request_sectors)) {
  BDIO_CHECK(sim != nullptr);
}

void BlockDevice::AttachObs(obs::TraceSession* trace,
                            obs::MetricsRegistry* metrics,
                            uint32_t trace_pid,
                            const std::string& device_class) {
  trace_ = trace;
  trace_pid_ = trace_pid;
  if (metrics == nullptr) return;
  const obs::Labels labels{{"class", device_class}};
  m_requests_ = metrics->GetCounter("disk.requests", labels);
  m_merges_ = metrics->GetCounter("sched.merges", labels);
  m_read_bytes_ = metrics->GetCounter("disk.read_bytes", labels);
  m_write_bytes_ = metrics->GetCounter("disk.write_bytes", labels);
  m_queue_depth_ = metrics->GetHistogram(
      "sched.queue_depth", labels, {0, 1, 2, 4, 8, 16, 32, 64, 128});
  m_request_sectors_ = metrics->GetHistogram(
      "disk.request_sectors", labels, {8, 16, 32, 64, 128, 256, 512, 1024,
                                       2048});
  m_await_ms_ = metrics->GetHistogram(
      "disk.await_ms", labels,
      {0.1, 0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
}

void BlockDevice::AttachBlktrace(obs::BlktraceSession* session,
                                 uint16_t device_index) {
  blktrace_ = session;
  blktrace_dev_ = device_index;
}

void BlockDevice::Submit(IoType type, Sectors sector, Sectors sectors,
                         InlineFn on_complete, uint64_t io_context,
                         uint32_t tag, uint32_t job) {
  BDIO_CHECK(sectors > Sectors{}) << name_ << ": zero-length bio";
  BDIO_CHECK(sectors.count() <= params_.max_request_sectors)
      << name_ << ": bio exceeds max request size (" << sectors
      << " sectors); split it in the block layer";
  BDIO_CHECK((sector + sectors).count() <= params_.TotalSectors())
      << name_ << ": bio beyond device end";

  IoRequest* bio = pool_.Alloc();
  bio->type = type;
  bio->sector = sector;
  bio->sectors = sectors;
  bio->io_context = io_context;
  bio->tag = tag;
  bio->job = job;
  bio->submit_time = sim_->Now();
  if (on_complete) bio->on_complete.push_back(std::move(on_complete));
  if (trace_) bio->trace_flow = trace_->current_flow();
  if (m_queue_depth_) {
    m_queue_depth_->Observe(static_cast<double>(scheduler_->size()));
  }

  if (IoRequest* into = scheduler_->TryMerge(bio)) {
    stats_.OnMerge(type, sim_->Now());
    if (m_merges_) m_merges_->Inc();
    if (blktrace_) {
      // The M record carries the merged bio's own geometry and attribution
      // but the *surviving* request's id, so the analyzer can credit the
      // bio to the request it dissolved into.
      blktrace_->Record(blktrace_dev_, obs::BlkAction::kMerge,
                        type == IoType::kWrite, sector.count(),
                        static_cast<uint32_t>(sectors.count()),
                        static_cast<uint32_t>(into->id), tag, job,
                        static_cast<uint32_t>(scheduler_->size()));
    }
    if (trace_) {
      trace_->Instant(trace_pid_, "sched", "merge",
                      "{\"dev\":\"" + name_ + "\",\"sectors\":" +
                          std::to_string(sectors.count()) + "}");
      // The merged bio's identity dissolves into the surviving request;
      // its flow terminates at the merge point.
      trace_->FlowEnd(bio->trace_flow, trace_pid_);
    }
    pool_.Release(bio);
  } else {
    bio->id = next_id_++;
    stats_.OnSubmit(sim_->Now());
    if (m_requests_) m_requests_->Inc();
    if (trace_) {
      bio->queue_span = trace_->BeginSpan(
          trace_pid_, "sched", type == IoType::kRead ? "queue-read"
                                                     : "queue-write",
          "{\"dev\":\"" + name_ + "\",\"sector\":" + std::to_string(sector.count()) +
              ",\"sectors\":" + std::to_string(sectors.count()) + "}");
      trace_->FlowStep(bio->trace_flow, trace_pid_);
    }
    scheduler_->Add(bio);
    if (blktrace_) {
      blktrace_->Record(blktrace_dev_, obs::BlkAction::kQueue,
                        type == IoType::kWrite, sector.count(),
                        static_cast<uint32_t>(sectors.count()),
                        static_cast<uint32_t>(bio->id), tag, job,
                        static_cast<uint32_t>(scheduler_->size()));
    }
  }
  MaybeDispatch();
}

size_t BlockDevice::PickSptf() const {
  size_t best = 0;
  uint64_t best_cost = ~uint64_t{0};
  for (size_t i = 0; i < ncq_pool_.size(); ++i) {
    // Estimate positioning deterministically by distance only (the random
    // rotational component is drawn at service time).
    const Sectors head = model_.head_sector();
    const Sectors s = ncq_pool_[i]->sector;
    const uint64_t dist = SectorGap(s, head).count();
    if (dist < best_cost) {
      best_cost = dist;
      best = i;
    }
  }
  return best;
}

void BlockDevice::MaybeDispatch() {
  // Refill the drive's internal queue from the elevator.
  while (ncq_pool_.size() < params_.ncq_depth && !scheduler_->empty()) {
    IoRequest* pulled = scheduler_->PopNext(sim_->Now());
    pulled->dispatch_time = sim_->Now();
    if (blktrace_) {
      // D: the (possibly merged) request leaves the elevator for the
      // drive. Geometry is the merged request's, not the founding bio's.
      blktrace_->Record(blktrace_dev_, obs::BlkAction::kDispatch,
                        pulled->type == IoType::kWrite, pulled->sector.count(),
                        static_cast<uint32_t>(pulled->sectors.count()),
                        static_cast<uint32_t>(pulled->id), pulled->tag,
                        pulled->job,
                        static_cast<uint32_t>(scheduler_->size()));
    }
    ncq_pool_.push_back(pulled);
  }
  if (busy_ || ncq_pool_.empty()) return;
  const size_t pick = params_.ncq_depth > 1 ? PickSptf() : 0;
  IoRequest* req = ncq_pool_[pick];
  ncq_pool_.erase(ncq_pool_.begin() + static_cast<ptrdiff_t>(pick));
  busy_ = true;
  if (trace_) {
    trace_->EndSpan(req->queue_span);
    req->service_span = trace_->BeginSpan(
        trace_pid_, "disk",
        req->is_read() ? "service-read" : "service-write",
        "{\"dev\":\"" + name_ + "\",\"sectors\":" +
            std::to_string(req->sectors.count()) + ",\"bios\":" +
            std::to_string(req->bio_count) + "}");
    trace_->FlowStep(req->trace_flow, trace_pid_);
  }
  const SimDuration service = model_.Service(*req);
  sim_->ScheduleAfter(service, [this, req] { Complete(req); });
}

void BlockDevice::Complete(IoRequest* req) {
  req->complete_time = sim_->Now();
  stats_.OnComplete(*req, sim_->Now());
  busy_ = false;
  if (blktrace_) {
    blktrace_->Record(blktrace_dev_, obs::BlkAction::kComplete,
                      req->type == IoType::kWrite, req->sector.count(),
                      static_cast<uint32_t>(req->sectors.count()),
                      static_cast<uint32_t>(req->id), req->tag, req->job,
                      static_cast<uint32_t>(scheduler_->size()));
  }
  if (trace_) trace_->EndSpan(req->service_span);
  if (m_requests_) {  // registry attached
    (req->is_read() ? m_read_bytes_ : m_write_bytes_)->Add(req->bytes().bytes());
    m_request_sectors_->Observe(static_cast<double>(req->sectors.count()));
    m_await_ms_->Observe(ToMillis(req->complete_time - req->submit_time));
  }
  // Completion callbacks may Submit follow-on bios, which can allocate from
  // the pool — so the request is recycled only after they ran.
  for (auto& cb : req->on_complete) {
    if (cb) cb();
  }
  pool_.Release(req);
  MaybeDispatch();
}

std::string BlockDevice::AuditInvariants() const {
  const SimTime now = sim_->Now();
  const DiskStatsSnapshot snap = stats_.Snapshot(now);
  const uint64_t expected = scheduler_->size() + ncq_pool_.size() +
                            (busy_ ? 1 : 0);
  if (snap.in_flight != expected) {
    return "disk " + name_ + ": in_flight=" + std::to_string(snap.in_flight) +
           " but elevator+NCQ+service hold " + std::to_string(expected);
  }
  if (snap.io_ticks.ns() > now.ns()) {
    return "disk " + name_ + ": io_ticks=" +
           std::to_string(snap.io_ticks.ns()) + " exceeds elapsed time " +
           std::to_string(now.ns()) + " (util > 1)";
  }
  if (snap.time_in_queue < snap.io_ticks) {
    return "disk " + name_ + ": time_in_queue=" +
           std::to_string(snap.time_in_queue.ns()) + " below io_ticks=" +
           std::to_string(snap.io_ticks.ns()) +
           " (queue integral must dominate busy time)";
  }
  if (busy_ && snap.in_flight == 0) {
    return "disk " + name_ + ": device busy with in_flight=0";
  }
  if (blktrace_ != nullptr) {
    // The lifecycle trace and /proc/diskstats are two views of the same
    // transitions: every merged bio is one M record, every new request one
    // Q record, every completion one C record.
    const uint64_t m_records =
        blktrace_->ActionCount(blktrace_dev_, obs::BlkAction::kMerge);
    const uint64_t merges = snap.merges[0] + snap.merges[1];
    if (merges != m_records) {
      return "disk " + name_ + ": diskstats merges=" +
             std::to_string(merges) + " but blktrace holds " +
             std::to_string(m_records) + " M records";
    }
    const uint64_t q_records =
        blktrace_->ActionCount(blktrace_dev_, obs::BlkAction::kQueue);
    if (q_records + 1 != next_id_) {
      return "disk " + name_ + ": " + std::to_string(next_id_ - 1) +
             " requests created but blktrace holds " +
             std::to_string(q_records) + " Q records";
    }
    const uint64_t c_records =
        blktrace_->ActionCount(blktrace_dev_, obs::BlkAction::kComplete);
    if (c_records != snap.ios[0] + snap.ios[1]) {
      return "disk " + name_ + ": diskstats ios=" +
             std::to_string(snap.ios[0] + snap.ios[1]) +
             " but blktrace holds " + std::to_string(c_records) +
             " C records";
    }
  }
  return {};
}

}  // namespace bdio::storage
