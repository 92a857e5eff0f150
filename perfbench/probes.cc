#include "probes.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "net/network.h"
#include "os/page_cache.h"
#include "sim/simulator.h"
#include "storage/block_device.h"
#include "storage/disk_parameters.h"

namespace perfbench {

using namespace bdio;

namespace {

/// One timed repeat: host seconds, operation count, and the first failed
/// result check ("" when every check held).
struct Trial {
  double seconds = 0;
  uint64_t ops = 0;
  std::string error;
};

std::string Expect(bool cond, const std::string& what) {
  return cond ? std::string() : what;
}

// --- Page cache -----------------------------------------------------------

/// A file laid out contiguously on one device from sector 0.
class ProbeFile : public os::CachedFile {
 public:
  ProbeFile(uint64_t id, storage::BlockDevice* device, uint64_t bytes)
      : id_(id), device_(device), bytes_(bytes) {}

  uint64_t file_id() const override { return id_; }
  storage::BlockDevice* device() const override { return device_; }
  uint64_t SectorFor(uint64_t byte_offset) const override {
    return byte_offset / kSectorSize;
  }
  uint64_t size() const override { return bytes_; }

 private:
  uint64_t id_;
  storage::BlockDevice* device_;
  uint64_t bytes_;
};

/// A standalone page cache over one disk, capacity 64 MiB (1024 units).
struct CacheRig {
  explicit CacheRig(uint64_t seed)
      : device(&sim, "probe", storage::DiskParameters::Seagate1TB7200(),
               Rng(seed)),
        cache(&sim, Params()) {}

  static os::PageCacheParams Params() {
    os::PageCacheParams p;
    p.capacity_bytes = MiB(64);
    return p;
  }
  uint64_t unit() const { return cache.params().unit_bytes; }

  sim::Simulator sim;
  storage::BlockDevice device;
  os::PageCache cache;
};

/// Writes a working set of half the capacity unit by unit, then SyncAll.
Trial FillOnce(CacheRig* rig, ProbeFile* file, uint64_t* accepted,
               bool* synced) {
  Trial trial;
  const uint64_t unit = rig->unit();
  const uint64_t units = file->size() / unit;
  const double start = HostSeconds();
  for (uint64_t u = 0; u < units; ++u) {
    rig->cache.Write(file, u * unit, unit, [accepted, unit] {
      *accepted += unit;
    });
  }
  rig->cache.SyncAll([synced] { *synced = true; });
  rig->sim.Run();
  trial.seconds = HostSeconds() - start;
  trial.ops = units;
  return trial;
}

Trial ProbeFill(uint64_t seed) {
  // Fresh caches, so every write lands in an empty cache.
  Trial total;
  for (int i = 0; i < 128; ++i) {
    CacheRig rig(seed + i);
    ProbeFile file(rig.cache.AllocateFileId(), &rig.device,
                   rig.cache.params().capacity_bytes / 2);
    uint64_t accepted = 0;
    bool synced = false;
    const Trial t = FillOnce(&rig, &file, &accepted, &synced);
    total.seconds += t.seconds;
    total.ops += t.ops;
    if (total.error.empty()) {
      total.error = Expect(accepted == file.size(), "fill: bytes accepted");
    }
    if (total.error.empty()) {
      total.error = Expect(synced, "fill: SyncAll never completed");
    }
    if (total.error.empty()) {
      total.error = Expect(rig.cache.stats().writeback_bytes == file.size(),
                           "fill: writeback bytes");
    }
  }
  return total;
}

/// Random unit reads over a resident, clean working set of half the
/// capacity: every read is a hit.
Trial ProbeHit(uint64_t seed) {
  CacheRig rig(seed);
  ProbeFile file(rig.cache.AllocateFileId(), &rig.device,
                 rig.cache.params().capacity_bytes / 2);
  uint64_t accepted = 0;
  bool synced = false;
  FillOnce(&rig, &file, &accepted, &synced);
  if (!synced) return Trial{0, 0, "hit: fill never synced"};

  const uint64_t unit = rig.unit();
  const uint64_t units = file.size() / unit;
  const uint64_t misses0 = rig.cache.stats().read_misses;
  const uint64_t hits0 = rig.cache.stats().read_hits;
  Rng rng(seed);
  constexpr uint64_t kReads = 200000;
  uint64_t fired = 0;
  Trial trial;
  const double start = HostSeconds();
  for (uint64_t i = 0; i < kReads; ++i) {
    rig.cache.Read(&file, rng.Uniform(units) * unit, unit,
                   [&fired] { ++fired; });
    if (i % 1024 == 1023) rig.sim.Run();
  }
  rig.sim.Run();
  trial.seconds = HostSeconds() - start;
  trial.ops = kReads;
  trial.error = Expect(fired == kReads, "hit: callbacks fired");
  if (trial.error.empty()) {
    trial.error =
        Expect(rig.cache.stats().read_misses == misses0 &&
                   rig.cache.stats().read_hits - hits0 == kReads,
               "hit: reads were not all hits");
  }
  return trial;
}

/// Random unit reads over a working set of four times the capacity: most
/// reads miss, fetch from the disk and evict.
Trial ProbeMiss(uint64_t seed) {
  CacheRig rig(seed);
  ProbeFile file(rig.cache.AllocateFileId(), &rig.device,
                 rig.cache.params().capacity_bytes * 4);
  const uint64_t unit = rig.unit();
  const uint64_t units = file.size() / unit;
  Rng rng(seed);
  constexpr uint64_t kReads = 65536;
  uint64_t fired = 0;
  Trial trial;
  const double start = HostSeconds();
  for (uint64_t i = 0; i < kReads; ++i) {
    rig.cache.Read(&file, rng.Uniform(units) * unit, unit,
                   [&fired] { ++fired; });
    if (i % 32 == 31) rig.sim.Run();
  }
  rig.sim.Run();
  trial.seconds = HostSeconds() - start;
  trial.ops = kReads;
  const os::PageCacheStats& s = rig.cache.stats();
  trial.error = Expect(fired == kReads, "miss: callbacks fired");
  if (trial.error.empty()) {
    trial.error = Expect(s.read_misses > kReads / 2, "miss: too few misses");
  }
  if (trial.error.empty()) {
    trial.error = Expect(s.evicted_units > 0, "miss: nothing evicted");
  }
  return trial;
}

// --- Block device -----------------------------------------------------------

/// 4 KiB bios in batches of 128; sequential batches are adjacent runs the
/// elevator merges, random ones scatter across the disk.
Trial ProbeDevice(uint64_t seed, bool sequential) {
  sim::Simulator sim;
  storage::BlockDevice device(&sim, "probe",
                              storage::DiskParameters::Seagate1TB7200(),
                              Rng(seed));
  Rng rng(seed);
  const uint64_t kBios = sequential ? 1 << 20 : 1 << 16;
  constexpr uint64_t kBatch = 128;
  constexpr uint64_t kBioSectors = 8;
  const uint64_t span_sectors = GiB(512) / kSectorSize;
  uint64_t fired = 0;
  uint64_t next = 0;
  Trial trial;
  const double start = HostSeconds();
  for (uint64_t i = 0; i < kBios; ++i) {
    uint64_t sector = next;
    if (sequential) {
      next += kBioSectors;
    } else {
      sector = rng.Uniform(span_sectors / kBioSectors) * kBioSectors;
    }
    device.Submit(storage::IoType::kRead, Sectors(sector),
                  Sectors(kBioSectors), [&fired] { ++fired; });
    if (i % kBatch == kBatch - 1) sim.Run();
  }
  sim.Run();
  trial.seconds = HostSeconds() - start;
  trial.ops = kBios;
  const storage::DiskStatsSnapshot s = device.Stats();
  const char* name = sequential ? "seq" : "rand";
  trial.error = Expect(fired == kBios, std::string(name) + ": completions");
  if (trial.error.empty()) {
    trial.error = Expect(s.sectors[0] == kBios * kBioSectors,
                         std::string(name) + ": sectors read");
  }
  if (trial.error.empty()) {
    trial.error = Expect(sequential ? s.merges[0] > kBios / 2
                                    : s.merges[0] < kBios / 2,
                         std::string(name) + ": merge count");
  }
  return trial;
}

// --- Network ------------------------------------------------------------

/// Rounds of 1 MiB transfers: fan-in (every node sends to node 0) or
/// all-to-all. Checks callbacks, bytes, and that no round beat the
/// bottleneck link's line rate.
Trial ProbeNetwork(uint32_t nodes, bool fan_in, uint32_t rounds) {
  sim::Simulator sim;
  net::Network network(&sim, nodes);
  const uint64_t bytes = MiB(1);
  uint64_t fired = 0;
  uint64_t flows = 0;
  Trial trial;
  const double start = HostSeconds();
  for (uint32_t r = 0; r < rounds; ++r) {
    for (uint32_t src = 0; src < nodes; ++src) {
      for (uint32_t dst = 0; dst < nodes; ++dst) {
        if (src == dst || (fan_in && dst != 0)) continue;
        network.Transfer(src, dst, bytes, [&fired] { ++fired; });
        ++flows;
      }
    }
    sim.Run();
  }
  trial.seconds = HostSeconds() - start;
  trial.ops = flows;
  trial.error = Expect(fired == flows, "net: callbacks fired");
  if (trial.error.empty()) {
    trial.error = Expect(network.total_bytes() == flows * bytes, "net: bytes");
  }
  if (trial.error.empty()) {
    // Each round moves (nodes-1) MiB through the busiest NIC.
    const double floor_s = static_cast<double>(rounds) * (nodes - 1) *
                           static_cast<double>(bytes) /
                           net::Network::kGigabitPayloadBytesPerSec;
    trial.error = Expect(ToSeconds(sim.Now()) >= floor_s * 0.999,
                         "net: faster than line rate");
  }
  return trial;
}

// --- Event kernel --------------------------------------------------------

/// A standing set of 4096 pending events, each rescheduling itself at a
/// random delay until 2M events have run.
Trial ProbeScheduler(uint64_t seed) {
  constexpr uint64_t kStanding = 4096;
  constexpr uint64_t kEvents = 2000000;
  sim::Simulator sim;
  Rng rng(seed);
  uint64_t fired = 0;
  std::function<void()> tick = [&] {
    if (++fired + kStanding <= kEvents) {
      sim.ScheduleAfter(Micros(1 + rng.Uniform(1000)), [&tick] { tick(); });
    }
  };
  Trial trial;
  const double start = HostSeconds();
  for (uint64_t i = 0; i < kStanding; ++i) {
    sim.ScheduleAfter(Micros(1 + rng.Uniform(1000)), [&tick] { tick(); });
  }
  sim.Run();
  trial.seconds = HostSeconds() - start;
  trial.ops = kEvents;
  trial.error = Expect(fired == kEvents && sim.pending() == 0,
                       "sim: events fired");
  return trial;
}

struct ProbeDef {
  const char* metric;
  const char* layer;
  std::function<Trial(uint64_t seed)> run;
};

}  // namespace

std::vector<ProbeResult> RunProbes(uint64_t seed, int repeats,
                                   SpanLog* spans) {
  const std::vector<ProbeDef> probes = {
      {"sim.probe_ns_per_event", "sim", ProbeScheduler},
      {"os.probe_fill_ns", "os", ProbeFill},
      {"os.probe_hit_ns", "os", ProbeHit},
      {"os.probe_miss_ns", "os", ProbeMiss},
      {"storage.probe_seq_ns", "storage",
       [](uint64_t s) { return ProbeDevice(s, true); }},
      {"storage.probe_rand_ns", "storage",
       [](uint64_t s) { return ProbeDevice(s, false); }},
      {"net.probe_fanin_ns", "net",
       [](uint64_t) { return ProbeNetwork(10, true, 2000); }},
      {"net.probe_all2all10_ns", "net",
       [](uint64_t) { return ProbeNetwork(10, false, 400); }},
      {"net.probe_all2all40_ns", "net",
       [](uint64_t) { return ProbeNetwork(40, false, 2); }},
  };
  std::vector<ProbeResult> results;
  for (const ProbeDef& p : probes) {
    ProbeResult r;
    r.metric = p.metric;
    std::vector<double> ns;
    for (int i = 0; i < repeats; ++i) {
      Trial t;
      {
        Timed timed(spans, p.metric, p.layer);
        t = p.run(seed);
      }
      if (!t.error.empty() && r.error.empty()) r.error = t.error;
      if (t.ops == 0 && r.error.empty()) r.error = "no operations";
      ns.push_back(t.ops > 0 ? t.seconds * 1e9 / static_cast<double>(t.ops)
                             : 0.0);
    }
    std::sort(ns.begin(), ns.end());
    r.ns_per_op = ns.empty() ? 0.0 : ns[ns.size() / 2];
    r.ok = r.error.empty() && repeats > 0;
    results.push_back(r);
  }
  return results;
}

}  // namespace perfbench
